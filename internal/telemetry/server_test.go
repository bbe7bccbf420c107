package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func startTestServer(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	srv, err := StartServer("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("epochs_total", "epochs").Add(41)
	srv := startTestServer(t, ServerOptions{Registry: reg})
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "epochs_total 41") {
		t.Fatalf("/metrics body:\n%s", body)
	}
}

func TestServerHealthz(t *testing.T) {
	healthy := true
	srv := startTestServer(t, ServerOptions{
		Health: func() (bool, string) {
			if healthy {
				return true, "engaged"
			}
			return false, "fallback"
		},
	})
	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != 200 || !strings.Contains(body, "engaged") {
		t.Fatalf("healthy: code=%d body=%q", code, body)
	}
	healthy = false
	code, body = get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "fallback") {
		t.Fatalf("unhealthy: code=%d body=%q", code, body)
	}
}

func TestServerTraceAndDebugEndpoints(t *testing.T) {
	trace := Endpoint{
		Path: "/trace",
		Desc: "recent epoch records",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.WriteString(w, `{"epoch":3}`+"\n")
		}),
	}
	srv := startTestServer(t, ServerOptions{Registry: NewRegistry(), Extra: []Endpoint{trace}})

	code, body := get(t, "http://"+srv.Addr()+"/trace")
	if code != 200 || !strings.Contains(body, `"epoch":3`) {
		t.Fatalf("/trace: code=%d body=%q", code, body)
	}
	code, body = get(t, "http://"+srv.Addr()+"/debug/vars")
	if code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	code, body = get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	code, body = get(t, "http://"+srv.Addr()+"/")
	if code != 200 || !strings.Contains(body, "/metrics") || !strings.Contains(body, "/trace") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
	code, _ = get(t, "http://"+srv.Addr()+"/nope")
	if code != 404 {
		t.Fatalf("unknown path: code=%d", code)
	}
}

func TestGoMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterGoMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_memstats_gc_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %s:\n%s", want, sb.String())
		}
	}
}
