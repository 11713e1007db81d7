package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRegisterDebugInRoutes pins the status codes and content types of the
// whole debug surface.
func TestRegisterDebugInRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("demo").Counter("events").Add(3)
	mux := http.NewServeMux()
	RegisterDebugIn(mux, reg)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cases := []struct {
		path     string
		wantCT   string // substring
		wantBody string // substring, "" = skip
	}{
		{"/metrics", "text/plain", "demo:"},
		{"/metrics.json", "application/json", `"events": 3`},
		{"/debug/vars", "application/json", ""},
		{"/debug/pprof/", "", ""},
		{"/debug/pprof/cmdline", "", ""},
		{"/debug/pprof/symbol", "", ""},
	}
	for _, c := range cases {
		resp, err := ts.Client().Get(ts.URL + c.path)
		if err != nil {
			t.Fatalf("GET %s: %v", c.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", c.path, resp.StatusCode)
			continue
		}
		if c.wantCT != "" && !strings.Contains(resp.Header.Get("Content-Type"), c.wantCT) {
			t.Errorf("%s: content type %q, want %q", c.path, resp.Header.Get("Content-Type"), c.wantCT)
		}
		if c.wantBody != "" && !strings.Contains(string(body), c.wantBody) {
			t.Errorf("%s: body %q missing %q", c.path, body, c.wantBody)
		}
	}
}

// TestMetricsSnapshotDeterministic: with no intervening writes, two
// requests return byte-identical snapshots in both encodings.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	reg := NewRegistry()
	sc := reg.Scope("suite")
	sc.Counter("sims").Add(7)
	sc.Gauge("inflight").Set(2)
	sc.Histogram("latency_ns").Record(1024)
	sc.Histogram("latency_ns").Record(4096)
	mux := http.NewServeMux()
	RegisterDebugIn(mux, reg)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, path := range []string{"/metrics", "/metrics.json"} {
		fetch := func() string {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			return string(body)
		}
		first, second := fetch(), fetch()
		if first != second {
			t.Errorf("%s snapshot not deterministic:\n--- first\n%s\n--- second\n%s", path, first, second)
		}
	}
	// The JSON encoding must round-trip.
	resp, err := ts.Client().Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if _, ok := v["suite"]; !ok {
		t.Errorf("metrics.json missing the suite scope: %v", v)
	}
}

// TestDebugMuxServesDefaultRegistry: the package-level mux reads the
// default registry.
func TestDebugMuxServesDefaultRegistry(t *testing.T) {
	name := "serve_test_unique_counter"
	Default().Scope("serve_test").Counter(name).Add(1)
	ts := httptest.NewServer(DebugMux())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), name) {
		t.Errorf("DebugMux /metrics missing %q", name)
	}
}

// TestDebugServerReadHeaderTimeout pins the standalone debug server's
// header timeout to the serving daemon's 10 s, so a slow-header client
// cannot hold its connections open indefinitely.
func TestDebugServerReadHeaderTimeout(t *testing.T) {
	if got := debugServer().ReadHeaderTimeout; got != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", got)
	}
}
