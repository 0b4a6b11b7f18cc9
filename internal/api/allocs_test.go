//go:build !race

package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestIngestBatchAllocs holds one batch of each evidence route, from
// the request through the handler, which applies it before its 202, to
// its allocation budget: the count measured when it was set plus at most
// 10 % headroom. A change that needs more allocations raises the
// ceiling in the open, with its reason; one that needs fewer lowers it.
//
// The batches are the benchmarks' 256-sample and 16-run ones, each
// posted through Handler on a recorder, with a Quiesce (the diagnosis
// pool settled) after each. Every post carries later times than the last, so the
// store accepts every sample and the monitor sees a fresh run. The race
// detector adds allocations, so the test is built only without it; CI
// runs it in a step of its own.
func TestIngestBatchAllocs(t *testing.T) {
	const posts = 50
	for _, c := range []struct {
		route  string
		body   func(testing.TB, float64) []byte
		budget float64
	}{
		{"/v1/ingest/samples", benchSampleBody, 34},
		{"/v1/ingest/runs", benchRunBody, 207},
	} {
		node := New(Config{Seed: testSeed})
		h := node.Handler()
		bodies := make([][]byte, posts+1) // AllocsPerRun adds a warm-up call
		for i := range bodies {
			bodies[i] = c.body(t, float64(i)*1e4)
		}
		i := 0
		got := testing.AllocsPerRun(posts, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.route, bytes.NewReader(bodies[i])))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("POST %s = %d %s", c.route, rec.Code, rec.Body)
			}
			if err := node.Quiesce(); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if errs := node.tel.applyErr.Value(); errs != 0 {
			t.Fatalf("%s: %d items refused at apply", c.route, errs)
		}
		node.Shutdown()
		t.Logf("%s: %.0f allocations per batch", c.route, got)
		if got > c.budget {
			t.Errorf("%s: %.0f allocations per batch, budget %.0f", c.route, got, c.budget)
		}
	}
}
