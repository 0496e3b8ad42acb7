package dnswire

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	t.Parallel()
	q := NewQuery(0x1234, "www.example.com", TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Errorf("header = %+v", got)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	if got.Questions[0].Name != "www.example.com." || got.Questions[0].Type != TypeA {
		t.Errorf("question = %+v", got.Questions[0])
	}
}

func TestResponseRoundTrip(t *testing.T) {
	t.Parallel()
	q := NewQuery(7, "host.example.org", TypeA)
	r := q.Reply()
	r.Authoritative = true
	r.Answers = append(r.Answers, A("host.example.org", 300, [4]byte{192, 0, 2, 1}))
	r.Answers = append(r.Answers, RR{Name: "host.example.org", Type: TypeTXT, Class: ClassIN, TTL: 60, Data: TXTData("hello world")})
	r.Authorities = append(r.Authorities, A("alias.example.org", 30, [4]byte{192, 0, 2, 2}))

	wire, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.Authoritative || got.RCode != RCodeNoError {
		t.Errorf("header = %+v", got)
	}
	if len(got.Answers) != 2 || len(got.Authorities) != 1 {
		t.Fatalf("sections: %d answers, %d authorities", len(got.Answers), len(got.Authorities))
	}
	if !bytes.Equal(got.Answers[0].Data, []byte{192, 0, 2, 1}) {
		t.Errorf("A rdata = %v", got.Answers[0].Data)
	}
	txt, err := got.Answers[1].TXT()
	if err != nil || txt != "hello world" {
		t.Errorf("TXT = %q, %v", txt, err)
	}
	if !bytes.Equal(got.Authorities[0].Data, []byte{192, 0, 2, 2}) {
		t.Errorf("authority rdata = %v", got.Authorities[0].Data)
	}
}

func TestNameCompressionShrinksRepeatedNames(t *testing.T) {
	t.Parallel()
	r := &Message{ID: 1, Response: true}
	name := "very.long.subdomain.of.example.com"
	r.Questions = append(r.Questions, Question{Name: name, Type: TypeA, Class: ClassIN})
	for i := 0; i < 4; i++ {
		r.Answers = append(r.Answers, A(name, 300, [4]byte{1, 2, 3, byte(i)}))
	}
	wire, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Without compression each A record repeats the 36-byte name; with
	// pointers each answer's name is 2 bytes.
	uncompressedEstimate := 12 + (len(name) + 2 + 4) + 4*(len(name)+2+10+4)
	if len(wire) >= uncompressedEstimate {
		t.Errorf("wire %d bytes, compression ineffective (uncompressed ~%d)", len(wire), uncompressedEstimate)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got.Answers {
		if a.Name != CanonicalName(name) {
			t.Errorf("answer name = %q", a.Name)
		}
	}
}

func TestCanonicalName(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"Example.COM":  "example.com.",
		"example.com.": "example.com.",
		"":             ".",
		".":            ".",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	t.Parallel()
	q := NewQuery(1, ".", TypeNS)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"short header", make([]byte, 11)},
		{"question count lies", append(make([]byte, 4), []byte{0, 9, 0, 0, 0, 0, 0, 0}...)},
	}
	for _, c := range cases {
		if _, err := Decode(c.wire); err == nil {
			t.Errorf("%s: decoded successfully", c.name)
		}
	}
}

func TestDecodePointerLoopRejected(t *testing.T) {
	t.Parallel()
	// Header + question whose name is a pointer to itself.
	wire := make([]byte, 12)
	wire[5] = 1 // QDCOUNT=1
	// name at offset 12: pointer to offset 12 (self)
	wire = append(wire, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Decode(wire); err == nil {
		t.Fatal("self-referential pointer accepted")
	}
}

func TestEncodeRejectsBadLabels(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("a", 64)
	q := NewQuery(1, long+".example.com", TypeA)
	if _, err := q.Encode(); err == nil {
		t.Error("63+ byte label encoded")
	}
	q = NewQuery(1, strings.Repeat("abcdefgh.", 32)+"com", TypeA)
	if _, err := q.Encode(); err == nil {
		t.Error("255+ byte name encoded")
	}
}

func TestTXTDataRoundTripLong(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("x", 700) // forces 3 character-strings
	rr := RR{Type: TypeTXT, Data: TXTData(long)}
	got, err := rr.TXT()
	if err != nil || got != long {
		t.Errorf("long TXT round trip failed: len=%d err=%v", len(got), err)
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(id uint16, resp, aa, tc, rd, ra bool, opcode, rcode uint8) bool {
		m := &Message{
			ID: id, Response: resp, Authoritative: aa, Truncated: tc,
			RecursionDesired: rd, RecursionAvailable: ra,
			Opcode: opcode & 0xF, RCode: RCode(rcode & 0xF),
			Questions: []Question{{Name: "x.test", Type: TypeA, Class: ClassIN}},
		}
		wire, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.ID == m.ID && got.Response == m.Response &&
			got.Authoritative == m.Authoritative && got.Truncated == m.Truncated &&
			got.RecursionDesired == m.RecursionDesired &&
			got.RecursionAvailable == m.RecursionAvailable &&
			got.Opcode == m.Opcode && got.RCode == m.RCode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Decode(Encode(m)) preserves names for arbitrary label
// shapes built from a safe alphabet.
func TestNameRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(raw []byte) bool {
		// Build a name of 1-4 labels, each 1-20 chars from [a-z0-9-].
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
		if len(raw) == 0 {
			return true
		}
		var labels []string
		n := int(raw[0])%4 + 1
		idx := 1
		for i := 0; i < n; i++ {
			l := 1
			if idx < len(raw) {
				l = int(raw[idx])%20 + 1
				idx++
			}
			var sb strings.Builder
			for j := 0; j < l; j++ {
				ch := alphabet[0]
				if idx < len(raw) {
					ch = alphabet[int(raw[idx])%len(alphabet)]
					idx++
				}
				sb.WriteByte(ch)
			}
			labels = append(labels, sb.String())
		}
		name := strings.Join(labels, ".")
		q := NewQuery(9, name, TypeA)
		wire, err := q.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.Questions[0].Name == CanonicalName(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	r := NewQuery(1, "www.example.com", TypeA).Reply()
	r.Answers = append(r.Answers, A("www.example.com", 300, [4]byte{1, 2, 3, 4}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := r.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
