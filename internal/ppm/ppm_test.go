package ppm

import (
	"fmt"
	"testing"
	"testing/quick"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dcrypto/field"
	"decoupling/internal/ledger"
)

var sumTask = Task{ID: "sum8", Type: TaskSum, Bits: 8}
var histTask = Task{ID: "hist8", Type: TaskHistogram, Buckets: 8}

func TestSumAggregation(t *testing.T) {
	s := NewSystem(sumTask, 2, nil)
	inputs := []uint64{0, 1, 5, 200, 255, 42}
	var want uint64
	for i, v := range inputs {
		if _, err := s.Upload(fmt.Sprintf("client-%d", i), v); err != nil {
			t.Fatal(err)
		}
		want += v
	}
	acc, rej := s.VerifyAll()
	if acc != len(inputs) || rej != 0 {
		t.Fatalf("verify: accepted=%d rejected=%d", acc, rej)
	}
	got, err := s.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want {
		t.Errorf("sum = %d, want %d", got[0], want)
	}
}

func TestHistogramAggregation(t *testing.T) {
	s := NewSystem(histTask, 3, nil)
	buckets := []uint64{0, 1, 1, 3, 7, 7, 7}
	for i, b := range buckets {
		if _, err := s.Upload(fmt.Sprintf("client-%d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	s.VerifyAll()
	got, err := s.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 0, 1, 0, 0, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAggregationAcrossAggregatorCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		s := NewSystem(sumTask, n, nil)
		for i := 0; i < 10; i++ {
			if _, err := s.Upload(fmt.Sprintf("c%d", i), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.VerifyAll()
		got, err := s.Aggregate()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got[0] != 45 {
			t.Errorf("n=%d: sum = %d, want 45", n, got[0])
		}
	}
}

func TestInputRangeRejected(t *testing.T) {
	s := NewSystem(sumTask, 2, nil)
	if _, err := s.Upload("c", 256); err != ErrInputRange {
		t.Errorf("err = %v", err)
	}
	h := NewSystem(histTask, 2, nil)
	if _, err := h.Upload("c", 8); err != ErrInputRange {
		t.Errorf("err = %v", err)
	}
}

func TestAggregateBeforeVerifyRejected(t *testing.T) {
	s := NewSystem(sumTask, 2, nil)
	if _, err := s.Upload("c", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Aggregate(); err != ErrNotVerified {
		t.Errorf("err = %v", err)
	}
}

// TestCorruptedShareRejected: flip one element of one aggregator's X
// share — the consistency check must catch it.
func TestCorruptedShareRejected(t *testing.T) {
	aggs := []*Aggregator{NewAggregator("A1", sumTask, nil), NewAggregator("A2", sumTask, nil)}
	shares, err := BuildReport(sumTask, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares[1].X[0] = field.Add(shares[1].X[0], 1) // corruption in flight
	for i, a := range aggs {
		if err := a.Upload("c", shares[i]); err != nil {
			t.Fatal(err)
		}
	}
	var consistency field.Elem
	for _, a := range aggs {
		w, err := a.VerifyShare(shares[0].ReportID)
		if err != nil {
			t.Fatal(err)
		}
		consistency = field.Add(consistency, w.Consistency)
	}
	if consistency == 0 {
		t.Error("corrupted share passed the consistency check")
	}
}

// TestNonOneHotHistogramRejected: a histogram report claiming two
// buckets fails the sound size check.
func TestNonOneHotHistogramRejected(t *testing.T) {
	s := NewSystem(histTask, 2, nil)
	// Build a malicious two-hot encoding by hand.
	x := field.NewVector(histTask.Buckets)
	x[2], x[5] = 1, 1
	y := field.NewVector(len(x))
	for i, e := range x {
		y[i] = field.Mul(e, e)
	}
	xs, _ := x.Split(2)
	ys, _ := y.Split(2)
	for i, a := range s.Aggregators {
		if err := a.Upload("cheater", &ReportShare{TaskID: histTask.ID, ReportID: "evil-report", X: xs[i], Y: ys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	s.pending = append(s.pending, "evil-report")
	acc, rej := s.VerifyAll()
	if acc != 0 || rej != 1 {
		t.Errorf("two-hot report: accepted=%d rejected=%d", acc, rej)
	}
}

func TestDuplicateReportRejected(t *testing.T) {
	a := NewAggregator("A", sumTask, nil)
	shares, err := BuildReport(sumTask, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Upload("c", shares[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Upload("c", shares[0]); err != ErrDuplicate {
		t.Errorf("err = %v", err)
	}
}

func TestWrongTaskRejected(t *testing.T) {
	a := NewAggregator("A", sumTask, nil)
	shares, err := BuildReport(histTask, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Upload("c", shares[0]); err != ErrUnknownTask {
		t.Errorf("err = %v", err)
	}
}

func TestReportShareMarshalRoundTrip(t *testing.T) {
	shares, err := BuildReport(sumTask, 99, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReportShare(shares[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskID != shares[0].TaskID || got.ReportID != shares[0].ReportID {
		t.Errorf("ids = %q/%q", got.TaskID, got.ReportID)
	}
	for i := range got.X {
		if got.X[i] != shares[0].X[i] || got.Y[i] != shares[0].Y[i] {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

func TestUnmarshalReportShareFuzzSafety(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = UnmarshalReportShare(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSharesHideInput: any single aggregator's view of two different
// inputs is identically distributed; smoke-test by checking a share of
// input 0 is not all zeros.
func TestSharesHideInput(t *testing.T) {
	shares, err := BuildReport(sumTask, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	allZero := true
	for _, e := range shares[0].X {
		if e != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("share of zero input is all zeros; shares do not hide the input")
	}
}

// Property: sum aggregation is exact for random input sets.
func TestSumExactProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		s := NewSystem(sumTask, 2, nil)
		var want uint64
		for i, v := range raw {
			if _, err := s.Upload(fmt.Sprintf("c%d", i), uint64(v)); err != nil {
				return false
			}
			want += uint64(v)
		}
		s.VerifyAll()
		got, err := s.Aggregate()
		return err == nil && got[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDecouplingTable reproduces the paper's §3.2.5 table (direct
// uploads, so the aggregator sees client identities: ▲).
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	s := NewSystem(sumTask, 2, lg)
	for i := 0; i < 8; i++ {
		who := fmt.Sprintf("client-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		// The sensitive datum is the client's individual value; it never
		// appears as a value anywhere, so no RegisterData is needed —
		// shares are unregistered (non-sensitive) strings.
		if _, err := s.Upload(who, uint64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	s.VerifyAll()
	if _, err := s.Aggregate(); err != nil {
		t.Fatal(err)
	}

	expected := core.PPM(2)
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("measured table diverges from paper:\n%s", core.RenderComparison(expected, measured))
		for _, d := range diffs {
			t.Log(d)
		}
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decoupled {
		t.Errorf("measured system not decoupled: %s", v)
	}
}

// TestNoEntityObservesInputs: the load-bearing negative — no observation
// by any aggregator or the collector ever contains a client's input
// value in the clear.
func TestNoEntityObservesInputs(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	s := NewSystem(sumTask, 3, lg)
	secret := uint64(123)
	cls.RegisterData(fmt.Sprint(secret), "alice", "", core.Sensitive)
	if _, err := s.Upload("alice", secret); err != nil {
		t.Fatal(err)
	}
	s.VerifyAll()
	if _, err := s.Aggregate(); err != nil {
		t.Fatal(err)
	}
	for _, o := range lg.Observations() {
		if o.Kind == core.Data && o.Level > core.NonSensitive {
			t.Errorf("entity %s observed sensitive data: %+v", o.Observer, o)
		}
	}
}

// TestOHTTPVariantHidesIdentity: with uploads via a relay the
// aggregators drop to △ — the paper's OHTTP improvement, measured.
func TestOHTTPVariantHidesIdentity(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	s := NewSystem(sumTask, 2, lg)
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("client-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		if _, err := s.Upload("ohttp-relay", 1); err != nil {
			t.Fatal(err)
		}
	}
	s.VerifyAll()
	for _, a := range s.Aggregators {
		tuple := lg.DeriveTuple(a.Name, core.Tuple{core.NonSensID(), core.NonSensData()})
		if !tuple.Equal(core.Tuple{core.NonSensID(), core.NonSensData()}) {
			t.Errorf("%s tuple = %s, want (△, ⊙) via relay", a.Name, tuple.Symbol())
		}
	}
}

// TestCollusionRequiresAllAggregators mirrors the SharedSecret model:
// the ledger-level linkage engine cannot see share recombination (that
// is algebra, not record joining), so this is checked at the structural
// level in core; here we confirm aggregate correctness is unaffected by
// which aggregator subsets exist.
func TestPartialAggregateSharesAreGarbage(t *testing.T) {
	s := NewSystem(sumTask, 3, nil)
	for i := 0; i < 5; i++ {
		if _, err := s.Upload(fmt.Sprintf("c%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	s.VerifyAll()
	// Recombining only 2 of 3 aggregate shares yields nonsense (with
	// overwhelming probability, fails the decode bound).
	shares := []field.Vector{s.Aggregators[0].AggregateShare(), s.Aggregators[1].AggregateShare()}
	if _, err := s.Collector.Collect(shares, 5); err == nil {
		t.Error("partial share set decoded successfully; shares do not hide the aggregate")
	}
	// All three decode exactly.
	shares = append(shares, s.Aggregators[2].AggregateShare())
	got, err := s.Collector.Collect(shares, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 50 {
		t.Errorf("sum = %d, want 50", got[0])
	}
}

func TestLinkageEngineOnLedger(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	s := NewSystem(sumTask, 2, lg)
	cls.RegisterIdentity("alice", "alice", "", core.Sensitive)
	if _, err := s.Upload("alice", 7); err != nil {
		t.Fatal(err)
	}
	s.VerifyAll()
	// Even full collusion of aggregators + collector cannot link alice
	// to any sensitive data record, because no such record exists —
	// the data never leaves the client in recognizable form.
	res := adversary.LinkSubjects(lg.Observations(), []string{"Aggregator 1", "Aggregator 2", "Collector"})
	if adversary.LinkageRate(res) != 0 {
		t.Error("ledger linkage found sensitive data records that should not exist")
	}
}

func BenchmarkUploadVerifyAggregate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSystem(sumTask, 2, nil)
		for j := 0; j < 16; j++ {
			if _, err := s.Upload(fmt.Sprintf("c%d", j), uint64(j)); err != nil {
				b.Fatal(err)
			}
		}
		s.VerifyAll()
		if _, err := s.Aggregate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildReport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildReport(histTask, 3, 2); err != nil {
			b.Fatal(err)
		}
	}
}
