package testbed

import (
	"testing"

	"diads/internal/exec"
	"diads/internal/metrics"
	"diads/internal/simtime"
	"diads/internal/workload"
)

func newStreamTestbed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewFigure1(7)
	if err != nil {
		t.Fatal(err)
	}
	tb.Schedules = []workload.QuerySchedule{
		{Query: "Q2", Start: simtime.Time(10 * simtime.Minute), Period: 30 * simtime.Minute, Count: 6},
		{Query: "Q6", Start: simtime.Time(15 * simtime.Minute), Period: 45 * simtime.Minute, Count: 4},
	}
	end := simtime.Time(4 * simtime.Hour)
	for i := range tb.Loads {
		tb.Loads[i].Window = simtime.NewInterval(0, end)
	}
	return tb
}

func TestSimulateStreamMatchesBatchShape(t *testing.T) {
	batch := newStreamTestbed(t)
	if err := batch.Simulate(); err != nil {
		t.Fatal(err)
	}
	stream := newStreamTestbed(t)
	var chunkTimes []simtime.Time
	if err := stream.SimulateStream(30*simtime.Minute, func(now simtime.Time) error {
		chunkTimes = append(chunkTimes, now)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if len(stream.Runs) != len(batch.Runs) {
		t.Fatalf("stream ran %d queries, batch %d", len(stream.Runs), len(batch.Runs))
	}
	for i := range stream.Runs {
		if stream.Runs[i].RunID != batch.Runs[i].RunID {
			t.Fatalf("run %d: %s vs %s", i, stream.Runs[i].RunID, batch.Runs[i].RunID)
		}
	}
	if stream.Horizon != batch.Horizon {
		t.Errorf("horizon %v vs %v", stream.Horizon, batch.Horizon)
	}
	// Chunk-aligned emission must produce the same series shapes
	// (counts and timestamps; values differ only by the RNG draw order).
	for _, k := range batch.Store.Keys() {
		b := batch.Store.Series(k.Component, k.Metric)
		s := stream.Store.Series(k.Component, k.Metric)
		if len(b) != len(s) {
			t.Errorf("%s: %d samples streamed, %d batch", k, len(s), len(b))
			continue
		}
		for i := range b {
			if b[i].T != s[i].T {
				t.Errorf("%s sample %d at %v, batch %v", k, i, s[i].T, b[i].T)
				break
			}
		}
	}
	if len(chunkTimes) == 0 {
		t.Fatal("onChunk never called")
	}
	for i := 1; i < len(chunkTimes); i++ {
		if chunkTimes[i] <= chunkTimes[i-1] {
			t.Fatalf("chunk boundaries not increasing: %v", chunkTimes)
		}
	}
	if last := chunkTimes[len(chunkTimes)-1]; last != stream.Horizon.End {
		t.Errorf("last chunk at %v, horizon end %v", last, stream.Horizon.End)
	}
}

func TestSimulateStreamDeliversRunsViaHook(t *testing.T) {
	tb := newStreamTestbed(t)
	var streamed []string
	sawBeforeChunk := make(map[string]simtime.Time)
	tb.Engine.OnRunComplete = func(rec *exec.RunRecord) {
		streamed = append(streamed, rec.RunID)
		sawBeforeChunk[rec.RunID] = rec.Stop
	}
	var lastChunk simtime.Time
	if err := tb.SimulateStream(30*simtime.Minute, func(now simtime.Time) error {
		lastChunk = now
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(tb.Runs) {
		t.Fatalf("hook saw %d runs, testbed recorded %d", len(streamed), len(tb.Runs))
	}
	if lastChunk != tb.Horizon.End {
		t.Errorf("final chunk %v, horizon end %v", lastChunk, tb.Horizon.End)
	}
	// Monitoring lags execution: samples never precede their chunk, so
	// the store must end exactly at the horizon.
	var latest simtime.Time
	for _, k := range tb.Store.Keys() {
		if smp, ok := tb.Store.Latest(k.Component, k.Metric); ok && smp.T > latest {
			latest = smp.T
		}
	}
	if latest > tb.Horizon.End {
		t.Errorf("samples at %v beyond horizon %v", latest, tb.Horizon.End)
	}
}

func TestSimulateStreamOnlyOnce(t *testing.T) {
	tb := newStreamTestbed(t)
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	if err := tb.SimulateStream(30*simtime.Minute, nil); err == nil {
		t.Fatal("second simulation accepted")
	}
}

func TestBatchSimulateStillEmitsDBMetrics(t *testing.T) {
	tb := newStreamTestbed(t)
	if err := tb.Simulate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []metrics.Metric{metrics.DBBlocksRead, metrics.DBBufferHits, metrics.DBLocksHeld} {
		if len(tb.Store.Series(DBInstance, m)) == 0 {
			t.Errorf("no %s samples", m)
		}
	}
}
