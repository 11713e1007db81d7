package experiments

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
)

// TestGoldenResultsUnchanged is the regression anchor for every table the
// repo reports: the scale-1 suite, written by WriteResults exactly as
// `experiments -scale 1` prints it, must equal the committed RESULTS.txt
// byte for byte. It also evaluates every registered scheme at its defaults
// on the same suite first, so a registration whose factory perturbs shared
// state would be caught here rather than in a report diff.
func TestGoldenResultsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 golden check skipped in -short")
	}
	golden, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatalf("read RESULTS.txt: %v", err)
	}
	tech, err := power.TechnologyByName("70nm")
	if err != nil {
		t.Fatalf("70nm: %v", err)
	}
	s := MustNew(WithScale(1))

	// Every registered scheme builds and evaluates at defaults.
	for _, name := range PolicyNames() {
		pol, err := ParsePolicy(name, tech)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		ev, err := s.EvaluateCellContext(context.Background(), "gzip", true, tech, pol)
		if err != nil {
			t.Fatalf("evaluate %q: %v", name, err)
		}
		if ev.Baseline <= 0 {
			t.Fatalf("%q: non-positive baseline %g", name, ev.Baseline)
		}
	}

	// The legacy theta spelling still builds the exact legacy policy value.
	pol, err := ParsePolicy("opt-sleep@8192", tech)
	if err != nil {
		t.Fatalf(`ParsePolicy("opt-sleep@8192"): %v`, err)
	}
	if !reflect.DeepEqual(pol, leakage.OPTSleep{Theta: 8192}) {
		t.Fatalf(`ParsePolicy("opt-sleep@8192") = %#v, want leakage.OPTSleep{Theta: 8192}`, pol)
	}

	var buf bytes.Buffer
	if err := WriteResults(context.Background(), &buf, s, nil, (*report.Table).Render); err != nil {
		t.Fatalf("WriteResults: %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, golden) {
		gotLines := strings.Split(string(got), "\n")
		wantLines := strings.Split(string(golden), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("output differs from RESULTS.txt at line %d (%d vs %d lines):\n got: %q\nwant: %q",
					i+1, len(gotLines), len(wantLines), g, w)
			}
		}
	}
}
