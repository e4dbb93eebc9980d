package controld

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTraceIngestDropsCounted: lines published past a subscriber's
// buffer while nothing reads it are counted, and the count of the
// trace store's subscription is served on /metrics.
func TestTraceIngestDropsCounted(t *testing.T) {
	s := New(Opts{Workers: 1})
	t.Cleanup(func() { s.Close() })
	// Stand in a subscription nobody drains for the store's ingest.
	stalled := s.hub.subscribe("", 2)
	s.ingest = stalled
	for i := 0; i < 5; i++ {
		s.hub.publish("alpha", []byte(`{"tenant":"alpha","t":0}`))
	}
	if got := s.hub.droppedBy(stalled); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE response_controld_trace_dropped_total counter\n",
		"\nresponse_controld_trace_dropped_total 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
}
