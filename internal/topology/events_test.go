package topology

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"diads/internal/simtime"
)

// TestEventLogSnapshotsStayPut: All hands out the log's own array, so no
// later Record, in time order or out of it, may change what it returned;
// events at one time keep their record order.
func TestEventLogSnapshotsStayPut(t *testing.T) {
	var l EventLog
	l.Record(Event{T: 100, Subject: "a"})
	l.Record(Event{T: 300, Subject: "d"})
	l.Record(Event{T: 400, Subject: "e"})
	before := l.All() // shares an array with room to spare
	want := slices.Clone(before)
	l.Record(Event{T: 100, Subject: "b"}) // out of order: after a
	l.Record(Event{T: 200, Subject: "c"})
	l.Record(Event{T: 500, Subject: "f"}) // in order: appended
	if !slices.EqualFunc(before, want, func(a, b Event) bool { return a.Subject == b.Subject && a.T == b.T }) {
		t.Fatalf("a later Record changed an earlier All: %v, was %v", before, want)
	}
	var got []ID
	for _, e := range l.All() {
		got = append(got, e.Subject)
	}
	if !slices.Equal(got, []ID{"a", "b", "c", "d", "e", "f"}) {
		t.Fatalf("log order %v", got)
	}
}

// TestEventLogConcurrentRecordAndRead records events, some out of order,
// while readers walk what All returns; run it under -race.
func TestEventLogConcurrentRecordAndRead(t *testing.T) {
	var l EventLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			at := simtime.Time(i)
			if i%7 == 0 {
				at -= 5
			}
			l.Record(Event{T: at})
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if all := l.All(); !slices.IsSortedFunc(all, func(a, b Event) int { return cmp.Compare(a.T, b.T) }) {
					t.Error("All returned events out of time order")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := l.Len(); n != 200 {
		t.Fatalf("%d events recorded, want 200", n)
	}
}
