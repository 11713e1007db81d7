// Package flow is a context-discipline fixture: an internal library
// package with a split API (X / XContext pairs).
package flow

import "context"

// DoContext is the context-aware spine.
func DoContext(ctx context.Context, n int) error { return ctx.Err() }

// Do is the sanctioned compatibility wrapper: a single return delegating
// to its own ...Context sibling. Not flagged.
func Do(n int) error { return DoContext(context.Background(), n) }

// Mint is not a wrapper for its own sibling, so its background context is
// a library-code violation.
func Mint(n int) error {
	return DoContext(context.Background(), n) // want `context.Background in library package`
}

// Todo flags the TODO spelling the same way.
func Todo() error {
	ctx := context.TODO() // want `context.TODO in library package`
	return DoContext(ctx, 1)
}

// Runner has a split method pair.
type Runner struct{}

// Run is the non-context variant, delegating as the pair contract asks.
func (r *Runner) Run() { r.RunContext(context.Background()) }

// RunContext is the context-aware variant.
func (r *Runner) RunContext(ctx context.Context) {}

// Solo has no ...Context sibling anywhere.
func Solo(n int) int { return n }

// Handle holds a ctx, so dropping it on the way down is flagged.
func Handle(ctx context.Context, r *Runner) error {
	r.Run()                       // want `calls Run while holding a ctx; RunContext accepts it`
	if err := Do(3); err != nil { // want `calls Do while holding a ctx; DoContext accepts it`
		return err
	}
	Solo(1)           // no sibling: fine
	r.RunContext(ctx) // context-aware: fine
	return DoContext(ctx, 1)
}

// Suppressed shows a justified escape hatch.
func Suppressed(ctx context.Context, r *Runner) {
	//lint:ignore ctxflow fixture: fire-and-forget cleanup must not inherit cancellation
	r.Run()
}
