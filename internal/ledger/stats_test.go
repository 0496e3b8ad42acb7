package ledger

import (
	"reflect"
	"testing"

	"decoupling/internal/telemetry"
)

// TestStats checks the -stats introspection surface: per-observer
// observation counts, distinct handle counts, name ordering, and the
// cross-shard total.
func TestStats(t *testing.T) {
	l := newTestLedger()
	l.SawIdentity("Proxy", "10.0.0.7", "conn-1")
	l.SawData("Proxy", "blob-a", "conn-1", "conn-2")
	l.SawData("Proxy", "blob-b", "conn-2") // conn-2 repeats: 3 handles -> 2 distinct
	l.SawData("Target", "secret-query.example.com")

	st := l.Stats()
	want := Stats{
		Observers: []ObserverStats{
			{Observer: "Proxy", Observations: 3, Handles: 2},
			{Observer: "Target", Observations: 1, Handles: 0},
		},
		Total: 4,
	}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
}

func TestStatsEmpty(t *testing.T) {
	l := newTestLedger()
	st := l.Stats()
	if st.Total != 0 || len(st.Observers) != 0 {
		t.Errorf("empty ledger Stats() = %+v", st)
	}
}

// TestInstrumentCountsObservations checks the per-observer telemetry
// counter, including backfill onto shards that existed before
// Instrument was called.
func TestInstrumentCountsObservations(t *testing.T) {
	l := newTestLedger()
	l.SawIdentity("Early", "10.0.0.7") // shard exists pre-instrumentation

	m := telemetry.NewMetrics()
	l.Instrument(telemetry.New(false, m, telemetry.A("experiment", "E2")))
	l.SawIdentity("Early", "10.0.0.7")
	l.SawData("Late", "blob-a")
	l.SawData("Late", "blob-b")

	counts := map[string]float64{}
	for _, sv := range m.CounterSeries(telemetry.MetricLedgerObservations) {
		counts[sv.Label("observer")] = sv.Value
		if sv.Label("experiment") != "E2" {
			t.Errorf("series %v missing base label", sv.Labels)
		}
	}
	// The pre-instrumentation observation is not retro-counted; the
	// counter reflects admissions while instrumented.
	want := map[string]float64{"Early": 1, "Late": 2}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("observation counts = %v, want %v", counts, want)
	}
	// The ledger itself still holds everything.
	if st := l.Stats(); st.Total != 4 {
		t.Errorf("Stats total = %d, want 4", st.Total)
	}
}
