package dnswire

import (
	"bytes"
	"testing"
)

// Native fuzz targets: run as seed corpus under `go test`, or
// explore with `go test -fuzz=FuzzDecode ./internal/dnswire`.

func FuzzDecode(f *testing.F) {
	// Seeds: a valid query, a valid response, known tricky shapes.
	q, _ := NewQuery(1, "www.example.com", TypeA).Encode()
	f.Add(q)
	r := NewQuery(2, "host.test", TypeTXT).Reply()
	r.Answers = append(r.Answers, RR{Name: "host.test", Type: TypeTXT, Class: ClassIN, TTL: 60, Data: TXTData("seed")})
	rw, _ := r.Encode()
	f.Add(rw)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer storm
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode without panicking; the
		// re-encoded form must decode again to the same section counts
		// (full idempotence doesn't hold because compression may
		// normalize names).
		wire, err := m.Encode()
		if err != nil {
			return // e.g. names containing bytes our encoder rejects
		}
		m2, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("section counts changed: %d/%d -> %d/%d",
				len(m.Questions), len(m.Answers), len(m2.Questions), len(m2.Answers))
		}
	})
}

func FuzzTXT(f *testing.F) {
	f.Add([]byte{4, 't', 'e', 's', 't'})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := RR{Type: TypeTXT, Data: data}
		_, _ = rr.TXT() // must not panic
	})
}
