// Package ppm implements Prio-style privacy-preserving measurement, the
// paper's §3.2.5 private aggregate statistics system and an instance of
// the IETF PPM effort it cites: clients split their input into additive
// secret shares over GF(2^61-1), one per aggregator; non-colluding
// aggregators verify and sum the shares; a collector recombines only the
// aggregate. No party but the client ever holds an individual input.
//
// Supported tasks:
//
//   - Sum: inputs are integers in [0, 2^Bits), encoded as bit vectors;
//     the aggregate is the sum over all clients.
//   - Histogram: inputs are bucket indices, encoded one-hot; the
//     aggregate is the per-bucket count vector.
//
// Report validity runs two linear checks that cost one field element of
// communication per aggregator each: a one-hotness/size check (the sum
// of the encoding's elements opens to exactly 1 for histograms — this
// check is sound, since it is a linear function of the shares) and a
// consistency check on the client's claimed elementwise squares (<r,
// y-x> must open to 0 for a public coin r). The consistency check
// catches corrupted or malformed encodings but, unlike a full Prio
// SNIP, not an adversarial client that crafts y = x; this substitution
// is recorded in DESIGN.md. Gross cheating is additionally bounded at
// decode time (an aggregate exceeding the client count fails).
//
// The paper's improvement sends uploads through an Oblivious HTTP relay,
// hiding client identities even from the aggregators. The model takes
// the uploader's name per report (System.Upload), so that variant is an
// upload under the relay's name; no OHTTP stack runs (internal/ohttp
// holds only its declared schema).
package ppm

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"decoupling/internal/dcrypto/field"
	"decoupling/internal/dcrypto/hkdf"
	"decoupling/internal/ledger"
)

// TaskType selects the aggregation.
type TaskType int

// Supported task types.
const (
	TaskSum TaskType = iota
	TaskHistogram
)

// Task describes one measurement.
type Task struct {
	ID   string
	Type TaskType
	// Bits is the input width for TaskSum (values in [0, 2^Bits)).
	Bits int
	// Buckets is the histogram size for TaskHistogram.
	Buckets int
}

// Dim returns the encoding vector length.
func (t Task) Dim() int {
	if t.Type == TaskSum {
		return t.Bits
	}
	return t.Buckets
}

// Errors returned by the protocol.
var (
	ErrInputRange   = errors.New("ppm: input out of range for task")
	ErrShareCount   = errors.New("ppm: wrong number of share bundles")
	ErrDuplicate    = errors.New("ppm: duplicate report id")
	ErrUnknownTask  = errors.New("ppm: unknown task")
	ErrNotVerified  = errors.New("ppm: aggregate requested before verification")
	ErrBogusDecode  = errors.New("ppm: aggregate fails sanity bounds (cheating client?)")
	ErrNoAggregates = errors.New("ppm: collector received no aggregate shares")
)

// ReportShare is the bundle one aggregator receives for one report.
type ReportShare struct {
	TaskID   string
	ReportID string
	X        field.Vector // share of the encoded input
	Y        field.Vector // share of the claimed elementwise squares
}

// Marshal encodes a share bundle for transport.
func (r *ReportShare) Marshal() []byte {
	out := make([]byte, 0, 4+len(r.TaskID)+len(r.ReportID)+8*len(r.X)+8*len(r.Y)+12)
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.TaskID)))
	out = append(out, r.TaskID...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.ReportID)))
	out = append(out, r.ReportID...)
	xb := r.X.Marshal()
	out = binary.BigEndian.AppendUint32(out, uint32(len(xb)))
	out = append(out, xb...)
	return append(out, r.Y.Marshal()...)
}

// Encode maps an input to its field-vector encoding for the task.
func Encode(task Task, input uint64) (field.Vector, error) {
	switch task.Type {
	case TaskSum:
		if task.Bits <= 0 || task.Bits > 61 || input >= 1<<uint(task.Bits) {
			return nil, ErrInputRange
		}
		v := field.NewVector(task.Bits)
		for i := 0; i < task.Bits; i++ {
			v[i] = field.Elem((input >> uint(i)) & 1)
		}
		return v, nil
	case TaskHistogram:
		if task.Buckets <= 0 || input >= uint64(task.Buckets) {
			return nil, ErrInputRange
		}
		v := field.NewVector(task.Buckets)
		v[input] = 1
		return v, nil
	default:
		return nil, ErrUnknownTask
	}
}

// BuildReport encodes input and splits it into n share bundles, one per
// aggregator, under a fresh random report id.
func BuildReport(task Task, input uint64, n int) ([]*ReportShare, error) {
	x, err := Encode(task, input)
	if err != nil {
		return nil, err
	}
	y := field.NewVector(len(x))
	for i, e := range x {
		y[i] = field.Mul(e, e)
	}
	var idBuf [8]byte
	if _, err := rand.Read(idBuf[:]); err != nil {
		return nil, fmt.Errorf("ppm: report id: %w", err)
	}
	id := hex.EncodeToString(idBuf[:])

	xs, err := x.Split(n)
	if err != nil {
		return nil, err
	}
	ys, err := y.Split(n)
	if err != nil {
		return nil, err
	}
	out := make([]*ReportShare, n)
	for i := 0; i < n; i++ {
		out[i] = &ReportShare{TaskID: task.ID, ReportID: id, X: xs[i], Y: ys[i]}
	}
	return out, nil
}

// publicCoin derives the public random verification vector for a report
// (both checks are linear, so a public coin bound to the report id is
// the standard Fiat-Shamir-style choice).
func publicCoin(task Task, reportID string) field.Vector {
	raw := hkdf.Key(nil, []byte(reportID), []byte("ppm verify coin "+task.ID), 8*task.Dim()+8*16)
	r := field.NewVector(task.Dim())
	off := 0
	for i := range r {
		for {
			if off+8 > len(raw) {
				// Rejection budget exhausted (probability ~2^-61 per
				// draw); fold the last draw deterministically.
				r[i] = field.Reduce(binary.BigEndian.Uint64(raw[len(raw)-8:]))
				break
			}
			v := binary.BigEndian.Uint64(raw[off:]) >> 3
			off += 8
			if v < field.P {
				r[i] = field.Elem(v)
				break
			}
		}
	}
	return r
}

// VerifyWord is an aggregator's opened linear-check contribution for
// one report.
type VerifyWord struct {
	ReportID string
	// Consistency is the share of <coin, Y-X>; the sum over aggregators
	// must open to 0.
	Consistency field.Elem
	// Size is the share of <1, X>; the sum must open to 1 for
	// histograms (sound one-hotness/size check).
	Size field.Elem
}

// Aggregator holds one share of every report and sums accepted shares.
type Aggregator struct {
	Name string
	Task Task
	lg   *ledger.Ledger

	mu      sync.Mutex
	pending map[string]*ReportShare
	sum     field.Vector
}

// NewAggregator creates an aggregator for the task.
func NewAggregator(name string, task Task, lg *ledger.Ledger) *Aggregator {
	return &Aggregator{
		Name: name, Task: task, lg: lg,
		pending: map[string]*ReportShare{},
		sum:     field.NewVector(task.Dim()),
	}
}

// Upload accepts a share bundle from a party (a client address, or a
// relay). The aggregator observes the uploader's identity and a share
// whose bytes are uniformly random — the ⊙ of the paper's table.
func (a *Aggregator) Upload(from string, share *ReportShare) error {
	if share.TaskID != a.Task.ID {
		return ErrUnknownTask
	}
	if len(share.X) != a.Task.Dim() || len(share.Y) != a.Task.Dim() {
		return fmt.Errorf("ppm: share dimension %d, want %d", len(share.X), a.Task.Dim())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.pending[share.ReportID]; dup {
		return ErrDuplicate
	}
	a.pending[share.ReportID] = share
	if a.lg != nil {
		h := "upload-" + share.ReportID
		a.lg.SawIdentity(a.Name, from, h)
		a.lg.SawData(a.Name, "share:"+ledger.Hash(share.X.Marshal()), h)
	}
	return nil
}

// VerifyShare computes this aggregator's opened check words for one
// pending report.
func (a *Aggregator) VerifyShare(reportID string) (VerifyWord, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	share, ok := a.pending[reportID]
	if !ok {
		return VerifyWord{}, fmt.Errorf("ppm: no pending report %q", reportID)
	}
	coin := publicCoin(a.Task, reportID)
	var consistency, size field.Elem
	for i := range share.X {
		consistency = field.Add(consistency, field.Mul(coin[i], field.Sub(share.Y[i], share.X[i])))
		size = field.Add(size, share.X[i])
	}
	return VerifyWord{ReportID: reportID, Consistency: consistency, Size: size}, nil
}

// Commit finalizes a verified report: accept sums the X share into the
// aggregate; reject discards it.
func (a *Aggregator) Commit(reportID string, accept bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	share, ok := a.pending[reportID]
	if !ok {
		return
	}
	delete(a.pending, reportID)
	if accept {
		a.sum.AddInto(share.X)
	}
}

// AggregateShare returns the sum of accepted shares — the only thing
// the collector ever receives from this aggregator.
func (a *Aggregator) AggregateShare() field.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := field.NewVector(len(a.sum))
	copy(out, a.sum)
	return out
}

// Collector recombines aggregate shares and decodes the result.
type Collector struct {
	Name string
	Task Task
	lg   *ledger.Ledger
}

// NewCollector creates a collector for the task.
func NewCollector(name string, task Task, lg *ledger.Ledger) *Collector {
	return &Collector{Name: name, Task: task, lg: lg}
}

// Collect recombines the aggregators' aggregate shares. reports is the
// number of accepted reports, used for the decode-time sanity bound.
// For TaskSum it returns a single total; for TaskHistogram the
// per-bucket counts.
func (c *Collector) Collect(shares []field.Vector, reports int) ([]uint64, error) {
	if len(shares) == 0 {
		return nil, ErrNoAggregates
	}
	agg, err := field.Recombine(shares)
	if err != nil {
		return nil, err
	}
	if c.lg != nil {
		for i := range shares {
			c.lg.SawIdentity(c.Name, fmt.Sprintf("aggregator-%d", i), "aggregate")
		}
		c.lg.SawData(c.Name, "aggregate:"+ledger.Hash(agg.Marshal()), "aggregate")
	}
	switch c.Task.Type {
	case TaskSum:
		var total uint64
		for i, e := range agg {
			if uint64(e) > uint64(reports) {
				return nil, ErrBogusDecode
			}
			total += uint64(e) << uint(i)
		}
		return []uint64{total}, nil
	case TaskHistogram:
		out := make([]uint64, len(agg))
		var sum uint64
		for i, e := range agg {
			if uint64(e) > uint64(reports) {
				return nil, ErrBogusDecode
			}
			out[i] = uint64(e)
			sum += uint64(e)
		}
		if sum != uint64(reports) {
			return nil, ErrBogusDecode
		}
		return out, nil
	default:
		return nil, ErrUnknownTask
	}
}

// System wires clients, n aggregators, and a collector for one task —
// the convenience used by experiments and examples.
type System struct {
	Task        Task
	Aggregators []*Aggregator
	Collector   *Collector

	mu       sync.Mutex
	pending  []string
	accepted int
}

// NewSystem builds a complete PPM deployment with n aggregators.
// Aggregator entity names follow the paper's table ("Aggregator" when
// n == 1, else "Aggregator i").
func NewSystem(task Task, n int, lg *ledger.Ledger) *System {
	s := &System{Task: task, Collector: NewCollector("Collector", task, lg)}
	for i := 1; i <= n; i++ {
		name := "Aggregator"
		if n > 1 {
			name = fmt.Sprintf("Aggregator %d", i)
		}
		s.Aggregators = append(s.Aggregators, NewAggregator(name, task, lg))
	}
	return s
}

// Upload builds and distributes a report for input; each aggregator
// sees the uploader identity as from. That is the client itself on the
// paper-table direct path, or an OHTTP relay in the §3.2.5 improvement,
// where aggregators drop from ▲ to △.
func (s *System) Upload(from string, input uint64) (string, error) {
	shares, err := BuildReport(s.Task, input, len(s.Aggregators))
	if err != nil {
		return "", err
	}
	for i, a := range s.Aggregators {
		if err := a.Upload(from, shares[i]); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	s.pending = append(s.pending, shares[0].ReportID)
	s.mu.Unlock()
	return shares[0].ReportID, nil
}

// VerifyAll runs the linear checks for every pending report and commits
// accept/reject at every aggregator. It returns (accepted, rejected).
func (s *System) VerifyAll() (int, int) {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()

	accepted, rejected := 0, 0
	for _, id := range pending {
		var consistency, size field.Elem
		ok := true
		for _, a := range s.Aggregators {
			w, err := a.VerifyShare(id)
			if err != nil {
				ok = false
				break
			}
			consistency = field.Add(consistency, w.Consistency)
			size = field.Add(size, w.Size)
		}
		if ok && consistency != 0 {
			ok = false
		}
		if ok && s.Task.Type == TaskHistogram && size != 1 {
			ok = false
		}
		for _, a := range s.Aggregators {
			a.Commit(id, ok)
		}
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	s.mu.Lock()
	s.accepted += accepted
	s.mu.Unlock()
	return accepted, rejected
}

// Aggregate runs collection over all accepted reports.
func (s *System) Aggregate() ([]uint64, error) {
	s.mu.Lock()
	if len(s.pending) > 0 {
		s.mu.Unlock()
		return nil, ErrNotVerified
	}
	n := s.accepted
	s.mu.Unlock()
	shares := make([]field.Vector, len(s.Aggregators))
	for i, a := range s.Aggregators {
		shares[i] = a.AggregateShare()
	}
	return s.Collector.Collect(shares, n)
}
