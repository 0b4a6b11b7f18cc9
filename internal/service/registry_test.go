package service

import (
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"diads/internal/simtime"
)

// TestSortIncidentsFullTieBreak is the merge regression test for the
// sharded fleet: SortIncidents must be a total order over the full
// incident identity — impact, recency, then instance, query, kind,
// subject — so concatenating per-shard registries and sorting yields
// one ranking no matter how the incidents were partitioned. Each
// adjacent pair below ties on every key before the one that separates
// it, covering the whole chain (the registry's own tie test never
// varies the query).
func TestSortIncidentsFullTieBreak(t *testing.T) {
	mk := func(inst, query, kind, subject string, extra simtime.Duration, last simtime.Time) Incident {
		return Incident{
			Instance: inst, Query: query, Kind: kind, Subject: subject,
			ImpactPct: 100, TotalExtra: extra, LastSeen: last,
		}
	}
	want := []Incident{
		mk("i1", "Q2", "k1", "s1", 20, 100), // impact 20s beats everything below
		mk("i1", "Q2", "k1", "s1", 10, 200), // impact ties: most recent first
		mk("i0", "Q9", "k9", "s9", 10, 100), // recency ties: instance ascending
		mk("i1", "Q1", "k9", "s9", 10, 100), // instance ties: query ascending
		mk("i1", "Q2", "k0", "s9", 10, 100), // query ties: kind ascending
		mk("i1", "Q2", "k1", "s0", 10, 100), // kind ties: subject ascending
		mk("i1", "Q2", "k1", "s1", 10, 100),
	}
	// Sort every rotation of the expected order, simulating different
	// shard partitions of the same incidents; a total order must
	// reproduce the identical ranking each time.
	for rot := 0; rot < len(want); rot++ {
		in := make([]Incident, 0, len(want))
		in = append(in, want[rot:]...)
		in = append(in, want[:rot]...)
		SortIncidents(in)
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("rotation %d: merged ranking diverged\n got: %+v\nwant: %+v", rot, in, want)
		}
	}
}

// TestIncidentIDIsFNV1a pins the detail-route ID to hash/fnv's 64-bit
// FNV-1a over the identity fields, each followed by a zero byte, so IDs
// a client saved stay valid; and Registry.Incident accepts only the
// canonical spelling ID produces.
func TestIncidentIDIsFNV1a(t *testing.T) {
	for _, inc := range []Incident{
		{},
		{Instance: "acme/db-1", Query: "Q2", Kind: "san-misconfig-contention", Subject: "vol-V1"},
		{Query: "Q14", Kind: "plan-regression", Subject: "idx_partsupp_part\x00"},
	} {
		h := fnv.New64a()
		for _, s := range []string{inc.Instance, inc.Query, inc.Kind, inc.Subject} {
			_, _ = h.Write([]byte(s))
			_, _ = h.Write([]byte{0})
		}
		if got, want := inc.ID(), strconv.FormatUint(h.Sum64(), 16); got != want {
			t.Errorf("%+v: ID = %s, want %s", inc, got, want)
		}
	}
	reg := NewRegistry()
	reg.open[incidentKey{"i", "Q2", "k", "s"}] = &Incident{Instance: "i", Query: "Q2", Kind: "k", Subject: "s"}
	id := reg.open[incidentKey{"i", "Q2", "k", "s"}].ID()
	for _, alias := range []string{"0" + id, strings.ToUpper(id), "+" + id} {
		if _, ok := reg.Incident(alias); ok {
			t.Errorf("Incident(%q) found the incident whose ID is %s", alias, id)
		}
	}
	if inc, ok := reg.Incident(id); !ok || inc.Subject != "s" {
		t.Errorf("Incident(%s) = %+v, %v", id, inc, ok)
	}
}
