package interval_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"leakbound/internal/interval"
	"leakbound/internal/sim/trace"
)

// randomStream builds a valid (non-decreasing cycle) event stream for one
// cache from a seeded RNG, plus the horizon that closes it.
func randomStream(rng *rand.Rand, numFrames uint32, n int) ([]trace.Event, uint64) {
	events := make([]trace.Event, 0, n)
	var cycle uint64
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(50)) // may stay equal: superscalar same-cycle accesses
		events = append(events, trace.Event{
			Cycle:    cycle,
			LineAddr: uint64(rng.Intn(64)),
			Frame:    uint32(rng.Intn(int(numFrames))),
			PC:       uint64(rng.Intn(32)) * 4,
			Cache:    trace.L1D,
			Kind:     trace.Kind(rng.Intn(3)),
			Miss:     rng.Intn(4) == 0,
		})
	}
	return events, cycle + uint64(rng.Intn(100)) + 1
}

// collectSequential runs the plain Collector over the stream.
func collectSequential(t *testing.T, events []trace.Event, numFrames uint32, horizon uint64, cl interval.Classifier) *interval.Distribution {
	t.Helper()
	col, err := interval.NewCollector(trace.L1D, numFrames, cl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := col.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	d, err := col.Finish(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMergePropertySharding is Distribution.Merge's property test:
// merging the distributions of an arbitrary per-frame partition (sharding)
// of a random event stream equals the distribution of the whole stream,
// and the conservation invariant (summed lengths == frames x cycles) holds
// on both sides of the merge.
func TestMergePropertySharding(t *testing.T) {
	prop := func(seed int64, framesRaw uint8, eventsRaw uint16, shardsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numFrames := uint32(framesRaw%16) + 1
		n := int(eventsRaw % 2000)
		shards := int(shardsRaw%7) + 1
		events, horizon := randomStream(rng, numFrames, n)

		whole := collectSequential(t, events, numFrames, horizon, nil)

		// Arbitrary per-frame sharding: assign each frame to a random part,
		// collect each part with its own sequential Collector (frames
		// remapped to dense local indices), then Merge.
		owner := make([]int, numFrames)
		local := make([]uint32, numFrames)
		counts := make([]uint32, shards)
		for f := range owner {
			p := rng.Intn(shards)
			owner[f] = p
			local[f] = counts[p]
			counts[p]++
		}
		merged := interval.NewDistribution(0, horizon)
		for p := 0; p < shards; p++ {
			if counts[p] == 0 {
				continue
			}
			col, err := interval.NewCollector(trace.L1D, counts[p], nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if owner[e.Frame] != p {
					continue
				}
				le := e
				le.Frame = local[e.Frame]
				if err := col.Add(le); err != nil {
					t.Fatal(err)
				}
			}
			d, err := col.Finish(horizon)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(d); err != nil {
				t.Fatal(err)
			}
		}

		if !merged.Equal(whole) {
			t.Logf("seed %d: merged != whole (frames %d, events %d, shards %d)", seed, numFrames, n, shards)
			return false
		}
		want := uint64(numFrames) * horizon
		if whole.Mass() != want || merged.Mass() != want {
			t.Logf("seed %d: conservation broken: whole %d, merged %d, want %d", seed, whole.Mass(), merged.Mass(), want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
