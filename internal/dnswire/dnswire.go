// Package dnswire implements the DNS message wire format (RFC 1035):
// header, questions, resource records, and domain-name compression. It
// is the encoding substrate for the toy DNS ecosystem in internal/dns
// and for the oblivious DNS systems (internal/odns, internal/odoh),
// whose whole point is to carry these messages where different parties
// can and cannot read them.
//
// The experiments build A records and TXT RDATA; records of any type
// round-trip as opaque RDATA.
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Type is a DNS RR type code.
type Type uint16

// Record types used in this module.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
)

// String names the common types.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
const ClassIN uint16 = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used in this module.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// Errors returned by the decoder.
var (
	ErrTruncated   = errors.New("dnswire: message truncated")
	ErrBadName     = errors.New("dnswire: malformed domain name")
	ErrBadPointer  = errors.New("dnswire: compression pointer loop or forward reference")
	ErrNameTooLong = errors.New("dnswire: domain name exceeds 255 octets")
)

// Question is a DNS question section entry.
type Question struct {
	Name  string
	Type  Type
	Class uint16
}

// RR is a resource record. Data holds RDATA in wire form (e.g. 4 bytes
// for A); the TXT/String helpers interpret it for the common types.
type RR struct {
	Name  string
	Type  Type
	Class uint16
	TTL   uint32
	Data  []byte
}

// TXT returns the concatenated character-strings of a TXT record.
func (r RR) TXT() (string, error) {
	if r.Type != TypeTXT {
		return "", fmt.Errorf("dnswire: TXT() on %s record", r.Type)
	}
	var b strings.Builder
	d := r.Data
	for len(d) > 0 {
		n := int(d[0])
		if len(d) < 1+n {
			return "", ErrTruncated
		}
		b.Write(d[1 : 1+n])
		d = d[1+n:]
	}
	return b.String(), nil
}

// TXTData encodes a string as TXT RDATA (split into 255-byte
// character-strings).
func TXTData(s string) []byte {
	var out []byte
	for len(s) > 0 {
		n := len(s)
		if n > 255 {
			n = 255
		}
		out = append(out, byte(n))
		out = append(out, s[:n]...)
		s = s[n:]
	}
	if out == nil {
		out = []byte{0}
	}
	return out
}

// Message is a complete DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
	Questions          []Question
	Answers            []RR
	Authorities        []RR
	Additionals        []RR
}

// NewQuery builds a standard recursive query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// Reply builds a response skeleton echoing the query's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		Opcode:             m.Opcode,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
	}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// CanonicalName lowercases and ensures a single trailing dot, the
// normalized form used as zone/cache keys throughout this module.
func CanonicalName(name string) string {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	return name + "."
}

// appendName encodes a domain name, using compression pointers into
// previously written names where possible.
func appendName(buf []byte, name string, offsets map[string]int) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(buf, 0), nil
	}
	if len(name) > 255 {
		return nil, ErrNameTooLong
	}
	labels := strings.Split(strings.TrimSuffix(name, "."), ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".") + "."
		if off, ok := offsets[suffix]; ok && off < 0x4000 {
			return binary.BigEndian.AppendUint16(buf, 0xC000|uint16(off)), nil
		}
		if len(buf) < 0x4000 {
			offsets[suffix] = len(buf)
		}
		l := labels[i]
		if l == "" || len(l) > 63 {
			return nil, ErrBadName
		}
		buf = append(buf, byte(len(l)))
		buf = append(buf, l...)
	}
	return append(buf, 0), nil
}

// readName decodes a (possibly compressed) domain name starting at off,
// returning the name and the offset just past it in the original stream.
func readName(msg []byte, off int) (string, int, error) {
	var b strings.Builder
	jumped := false
	next := off
	seen := 0
	for {
		if next >= len(msg) {
			return "", 0, ErrTruncated
		}
		l := int(msg[next])
		switch {
		case l == 0:
			if !jumped {
				off = next + 1
			}
			name := b.String()
			if name == "" {
				name = "."
			}
			return name, off, nil
		case l&0xC0 == 0xC0:
			if next+1 >= len(msg) {
				return "", 0, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(msg[next:]) & 0x3FFF)
			if ptr >= next {
				return "", 0, ErrBadPointer
			}
			if !jumped {
				off = next + 2
				jumped = true
			}
			next = ptr
			seen++
			if seen > 63 {
				return "", 0, ErrBadPointer
			}
		case l > 63:
			return "", 0, ErrBadName
		default:
			if next+1+l > len(msg) {
				return "", 0, ErrTruncated
			}
			b.Write(msg[next+1 : next+1+l])
			b.WriteByte('.')
			next += 1 + l
			if b.Len() > 256 {
				return "", 0, ErrNameTooLong
			}
		}
	}
}

const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// Encode serializes the message with name compression.
func (m *Message) Encode() ([]byte, error) {
	buf := make([]byte, 12, 512)
	binary.BigEndian.PutUint16(buf[0:], m.ID)
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= flagAA
	}
	if m.Truncated {
		flags |= flagTC
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(m.RCode) & 0xF
	binary.BigEndian.PutUint16(buf[2:], flags)
	binary.BigEndian.PutUint16(buf[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(m.Authorities)))
	binary.BigEndian.PutUint16(buf[10:], uint16(len(m.Additionals)))

	offsets := map[string]int{}
	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, offsets); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if buf, err = appendName(buf, rr.Name, offsets); err != nil {
				return nil, err
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
			buf = binary.BigEndian.AppendUint16(buf, rr.Class)
			buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
			if len(rr.Data) > 0xFFFF {
				return nil, fmt.Errorf("dnswire: RDATA too long (%d)", len(rr.Data))
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(rr.Data)))
			buf = append(buf, rr.Data...)
		}
	}
	return buf, nil
}

func readRR(msg []byte, off int) (RR, int, error) {
	name, off, err := readName(msg, off)
	if err != nil {
		return RR{}, 0, err
	}
	if off+10 > len(msg) {
		return RR{}, 0, ErrTruncated
	}
	rr := RR{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(msg[off:])),
		Class: binary.BigEndian.Uint16(msg[off+2:]),
		TTL:   binary.BigEndian.Uint32(msg[off+4:]),
	}
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return RR{}, 0, ErrTruncated
	}
	rr.Data = append([]byte(nil), msg[off:off+rdlen]...)
	return rr, off + rdlen, nil
}

// Decode parses a wire-format DNS message.
func Decode(msg []byte) (*Message, error) {
	if len(msg) < 12 {
		return nil, ErrTruncated
	}
	m := &Message{ID: binary.BigEndian.Uint16(msg[0:])}
	flags := binary.BigEndian.Uint16(msg[2:])
	m.Response = flags&flagQR != 0
	m.Opcode = uint8(flags >> 11 & 0xF)
	m.Authoritative = flags&flagAA != 0
	m.Truncated = flags&flagTC != 0
	m.RecursionDesired = flags&flagRD != 0
	m.RecursionAvailable = flags&flagRA != 0
	m.RCode = RCode(flags & 0xF)

	counts := []int{
		int(binary.BigEndian.Uint16(msg[4:])),
		int(binary.BigEndian.Uint16(msg[6:])),
		int(binary.BigEndian.Uint16(msg[8:])),
		int(binary.BigEndian.Uint16(msg[10:])),
	}
	off := 12
	for i := 0; i < counts[0]; i++ {
		name, n, err := readName(msg, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+4 > len(msg) {
			return nil, ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  Type(binary.BigEndian.Uint16(msg[off:])),
			Class: binary.BigEndian.Uint16(msg[off+2:]),
		})
		off += 4
	}
	for sec := 1; sec <= 3; sec++ {
		for i := 0; i < counts[sec]; i++ {
			rr, n, err := readRR(msg, off)
			if err != nil {
				return nil, err
			}
			off = n
			switch sec {
			case 1:
				m.Answers = append(m.Answers, rr)
			case 2:
				m.Authorities = append(m.Authorities, rr)
			case 3:
				m.Additionals = append(m.Additionals, rr)
			}
		}
	}
	return m, nil
}

// A builds an A record; addr must be 4 bytes.
func A(name string, ttl uint32, addr [4]byte) RR {
	return RR{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, Data: addr[:]}
}
