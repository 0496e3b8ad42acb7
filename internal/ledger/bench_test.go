package ledger

import (
	"fmt"
	"runtime"
	"testing"

	"decoupling/internal/core"
)

// benchLedger populates a ledger shaped like a mid-size experiment:
// `observers` entities, `per` observations each, two handles per
// observation.
func benchLedger(observers, per int) (*Ledger, *core.System) {
	cls := NewClassifier()
	lg := New(cls, nil)
	sys := &core.System{Name: "bench"}
	sys.Entities = append(sys.Entities, core.Entity{
		Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()},
	})
	for o := 0; o < observers; o++ {
		name := fmt.Sprintf("ent-%d", o)
		sys.Entities = append(sys.Entities, core.Entity{
			Name: name, Knows: core.Tuple{core.SensID(), core.NonSensData()},
		})
		for i := 0; i < per; i++ {
			who := fmt.Sprintf("subject-%d", i%16)
			cls.RegisterIdentity(who, who, "", core.Sensitive)
			lg.SawIdentity(name, who, fmt.Sprintf("conn-%d-%d", o, i), fmt.Sprintf("sess-%d", i%8))
		}
	}
	return lg, sys
}

// BenchmarkSawUninstrumented pins the provenance-off hot path: with no
// telemetry attached, Saw must pay exactly one nil pointer check for
// the phase join (plus the pre-existing classify + shard append).
func BenchmarkSawUninstrumented(b *testing.B) {
	cls := NewClassifier()
	cls.RegisterIdentity("alice", "alice", "", core.Sensitive)
	lg := New(cls, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.SawIdentity("ent", "alice", "h1")
	}
}

// BenchmarkDeriveSystem is the provenance-disabled derivation path the
// audit layer must not slow down: regressions here mean DeriveTuple
// picked up provenance bookkeeping it should only do in the Evidence
// variants.
func BenchmarkDeriveSystem(b *testing.B) {
	lg, sys := benchLedger(4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := lg.DeriveSystem(sys); len(m.Entities) != len(sys.Entities) {
			b.Fatal("bad derivation")
		}
	}
}

// BenchmarkDeriveSystemEvidence measures the provenance-carrying
// variant for comparison; it is allowed to cost more — it is run once
// per audit, never on the reproduction hot path.
func BenchmarkDeriveSystemEvidence(b *testing.B) {
	lg, sys := benchLedger(4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := lg.DeriveSystemEvidence(sys); len(ev.Entities) != len(sys.Entities) {
			b.Fatal("bad derivation")
		}
	}
}

// The ODoH-shaped fixtures mirror one round of the benchmark's odoh-*
// workloads: 20,500 queries from about 5,000 clients (4 queries each),
// 100 names, six observations per query — two each for the proxy
// (Resolver), the target (Oblivious Resolver) and the origin, with the
// handles internal/odoh and internal/dns attach. Every handle string is
// allocated afresh per query, as on the real request path, so repeated
// handles are equal in value but not shared in memory.
const (
	odohShapeQueries = 20_500
	odohShapeNames   = 100
	odohShapePerUser = 4
)

func odohShapeClassifier() *Classifier {
	cls := NewClassifier()
	for _, n := range []string{"Resolver", "Oblivious Resolver", "Origin"} {
		cls.RegisterIdentity(n, "", "", core.NonSensitive)
	}
	for n := 0; n < odohShapeNames; n++ {
		cls.RegisterData(odohShapeName(n), "", "", core.Sensitive)
	}
	for c := 0; c <= odohShapeQueries/odohShapePerUser; c++ {
		who := fmt.Sprintf("client%06d", c)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
	}
	return cls
}

func odohShapeName(n int) string { return fmt.Sprintf("site%03d.test.", n) }

// odohProxyBatch is the two-entry batch the proxy admits for query q.
func odohProxyBatch(q int) []Entry {
	client := fmt.Sprintf("client%06d", q/odohShapePerUser)
	clientLeg := ConnHandle(client, "Resolver")
	return []Entry{
		{Kind: core.Identity, Value: client, Handles: []string{client, clientLeg}},
		{Kind: core.Data, Value: "ciphertext:" + Hash([]byte(fmt.Sprint(q))),
			Handles: []string{clientLeg, ConnHandle("Resolver", "Oblivious Resolver")}},
	}
}

// odohShapeLedger admits queries ODoH-shaped queries.
func odohShapeLedger(queries int) *Ledger {
	lg := New(odohShapeClassifier(), nil)
	for q := 0; q < queries; q++ {
		name := odohShapeName(q * 7 % odohShapeNames)
		lg.SawBatch("Resolver", odohProxyBatch(q))
		h := ConnHandle("Resolver", "Oblivious Resolver")
		lg.SawBatch("Oblivious Resolver", []Entry{
			{Kind: core.Identity, Value: "Resolver", Handles: []string{h}},
			{Kind: core.Data, Value: name, Handles: []string{h, "recursion:" + name}},
		})
		h, nameH := ConnHandle("Oblivious Resolver", "Origin"), Hash([]byte(name))
		lg.SawIdentity("Origin", "Oblivious Resolver", h, nameH)
		lg.SawData("Origin", name, h, nameH)
	}
	return lg
}

// TestODoHShapeHeapPerObservation guards the log's compact layout: a
// ledger the size of one odoh-* round, classifier included, keeps at
// most 110 bytes of live heap per observation. It is not parallel, so
// no other test allocates between its two readings of the heap.
func TestODoHShapeHeapPerObservation(t *testing.T) {
	const limit = 110
	before := liveHeapBytes()
	lg := odohShapeLedger(odohShapeQueries)
	perObs := float64(liveHeapBytes()-before) / float64(lg.Len())
	runtime.KeepAlive(lg)
	t.Logf("%.1f B of live heap per observation over %d observations", perObs, lg.Len())
	if perObs > limit {
		t.Errorf("%.1f B of live heap per observation, over the %d B limit", perObs, limit)
	}
}

// liveHeapBytes collects garbage and returns the bytes still live.
func liveHeapBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkDeriveSystemODoHShape prices one audit's derive on a ledger
// the size of one odoh-* round: 123k observations, ~10k distinct proxy
// handles.
func BenchmarkDeriveSystemODoHShape(b *testing.B) {
	lg := odohShapeLedger(odohShapeQueries)
	expected := core.ObliviousDNS()
	if diffs := core.CompareTuples(expected, lg.DeriveSystem(expected)); len(diffs) != 0 {
		b.Fatalf("ODoH-shaped ledger diverges from the paper: %v", diffs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = lg.DeriveSystem(expected)
	}
}

// BenchmarkSawBatchODoHShape prices the proxy's two-entry admission.
// Handles repeat as in a round (each client leg on four queries, one
// target leg throughout), and the ledger starts afresh every round's
// worth of batches so it never outgrows what one round holds.
func BenchmarkSawBatchODoHShape(b *testing.B) {
	cls := odohShapeClassifier()
	batches := make([][]Entry, odohShapeQueries)
	for q := range batches {
		batches[q] = odohProxyBatch(q)
	}
	lg := New(cls, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(batches)
		if q == 0 && i > 0 {
			b.StopTimer()
			lg = New(cls, nil)
			b.StartTimer()
		}
		lg.SawBatch("Resolver", batches[q])
	}
}

var benchSink any
