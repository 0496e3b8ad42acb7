package mixnet

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/transport"
)

// This file implements Chaum's untraceable return addresses (the
// "return addresses" of the 1981 paper the HotNets paper builds on):
// the original sender pre-builds a reply block — a layered onion whose
// layers carry per-hop symmetric keys and routing — and hands it to the
// receiver along with a message. To reply, the receiver attaches its
// response to the block and injects it at the block's first mix. Each
// mix peels one block layer, learns only the next hop, and encrypts the
// response under the embedded key; the final mix delivers to the
// sender, who holds all per-hop keys and strips every layer.
//
// The receiver thus answers without ever learning who it is talking
// to, and no mix sees both endpoints — the same decoupling as the
// forward path, in reverse.

// Per-hop reply encryption is AES-CTR with a zero IV; each key is used
// for exactly one reply, and CTR keystreams commute under XOR so the
// sender can strip all layers in any order.
func replyXOR(key, data []byte) {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(fmt.Sprintf("mixnet: reply key: %v", err))
	}
	var iv [16]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(data, data)
}

// ErrMalformedReply is returned for undecodable reply traffic.
var ErrMalformedReply = errors.New("mixnet: malformed reply message")

// ReplyAddress is an anonymous return address: inject the block at
// FirstHop and the network routes the attached response back to its
// builder.
type ReplyAddress struct {
	FirstHop transport.Addr
	Block    []byte
}

// ReplyKeys is the builder's secret: the per-hop keys needed to decrypt
// a returned reply.
type ReplyKeys struct {
	keys [][]byte
}

// Decrypt strips all per-hop encryption layers from a delivered reply.
func (rk *ReplyKeys) Decrypt(data []byte) []byte {
	out := append([]byte(nil), data...)
	for _, k := range rk.keys {
		replyXOR(k, out)
	}
	return out
}

// Block layer plaintext:
//
//	[key 16][type 1][addrlen 2][addr][inner block...]
//
// type layerRelay: addr is the next mix; type layerDeliver: addr is the
// builder's own address and inner is empty.

// BuildReplyBlock constructs an anonymous return address routing
// replies through route (first hop first) back to backAddr. It returns
// the address to hand to the correspondent and the keys to keep.
func BuildReplyBlock(route []NodeInfo, backAddr transport.Addr) (*ReplyAddress, *ReplyKeys, error) {
	if len(route) == 0 {
		return nil, nil, errors.New("mixnet: reply block needs at least one mix")
	}
	keys := make([][]byte, len(route))
	for i := range keys {
		keys[i] = make([]byte, 16)
		if _, err := rand.Read(keys[i]); err != nil {
			return nil, nil, fmt.Errorf("mixnet: reply key: %w", err)
		}
	}
	// Innermost layer: the last mix delivers to the builder.
	var inner []byte
	for i := len(route) - 1; i >= 0; i-- {
		typ := layerRelay
		var addr transport.Addr
		if i == len(route)-1 {
			typ = layerDeliver
			addr = backAddr
		} else {
			addr = route[i+1].Addr
		}
		plain := make([]byte, 0, 16+3+len(addr)+len(inner))
		plain = append(plain, keys[i]...)
		plain = append(plain, typ)
		plain = binary.BigEndian.AppendUint16(plain, uint16(len(addr)))
		plain = append(plain, addr...)
		plain = append(plain, inner...)
		wire, err := seal(route[i].PubKey, plain)
		if err != nil {
			return nil, nil, err
		}
		inner = wire
	}
	return &ReplyAddress{FirstHop: route[0].Addr, Block: inner}, &ReplyKeys{keys: keys}, nil
}

// SendReply attaches response to the reply address and injects it into
// the mix network on behalf of from (typically a Receiver's address).
func SendReply(net transport.Transport, from transport.Addr, ra *ReplyAddress, response []byte) error {
	wire := make([]byte, 0, 1+4+len(ra.Block)+len(response))
	wire = append(wire, tagReply)
	wire = binary.BigEndian.AppendUint32(wire, uint32(len(ra.Block)))
	wire = append(wire, ra.Block...)
	wire = append(wire, response...)
	return net.Send(from, ra.FirstHop, wire)
}

// handleReply processes reply-block traffic at a mix: peel one block
// layer, encrypt the response under the embedded key, forward (or
// deliver to the builder). Reply traffic joins the same batch queue as
// forward onions, so it enjoys the same batching defense.
func (m *Mix) handleReply(net transport.Transport, msg transport.Message) {
	hop := m.wire.Hop(m.Name, "mixnet.reply", msg.Trace, string(msg.Src), "")
	defer hop.End()
	payload := msg.Payload[1:]
	if len(payload) < 4 {
		m.dropped++
		return
	}
	blockLen := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < blockLen {
		m.dropped++
		return
	}
	block, response := payload[:blockLen], payload[blockLen:]

	plain, err := open(m.kp, block)
	if err != nil {
		m.dropped++
		return
	}
	if len(plain) < 16+3 {
		m.dropped++
		return
	}
	key := plain[:16]
	typ := plain[16]
	n := int(binary.BigEndian.Uint16(plain[17:19]))
	if len(plain) < 19+n {
		m.dropped++
		return
	}
	addr := transport.Addr(plain[19 : 19+n])
	innerBlock := plain[19+n:]

	enc := append([]byte(nil), response...)
	replyXOR(key, enc)

	var out outbound
	switch typ {
	case layerRelay:
		wire := make([]byte, 0, 4+len(innerBlock)+len(enc))
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(innerBlock)))
		wire = append(wire, innerBlock...)
		wire = append(wire, enc...)
		out = outbound{next: addr, wire: wire, tag: tagReply}
	case layerDeliver:
		out = outbound{next: addr, wire: enc, tag: tagReplyDeliver}
	default:
		m.dropped++
		return
	}
	if m.lg != nil {
		// Handles are the exact bytes shared with each neighbor.
		inHandle := ledger.Hash(msg.Payload[1:])
		outHandle := ledger.Hash(out.wire)
		m.lg.SawBatch(m.Name, []ledger.Entry{
			{Kind: core.Identity, Value: string(msg.Src), Handles: []string{inHandle, outHandle}},
			{Kind: core.Data, Value: "reply:" + outHandle, Handles: []string{inHandle, outHandle}},
		})
		hop.Observe(core.Identity, string(msg.Src))
		hop.Observe(core.Data, "reply:"+outHandle)
	}
	out.trace = hop.Forward()
	m.enqueue(net, out)
}

// DeliveredReply is a reply that reached the original sender.
type DeliveredReply struct {
	From transport.Addr // last-hop mix
	Body []byte         // still wearing all per-hop layers; Decrypt with ReplyKeys
	Time time.Duration
}

// ReplyCollector is the original sender's node: it collects encrypted
// replies for later decryption with the matching ReplyKeys.
type ReplyCollector struct {
	Addr    transport.Addr
	inbox   []DeliveredReply
	dropped int
}

// NewReplyCollector registers a collector node at addr.
func NewReplyCollector(net transport.Transport, addr transport.Addr) *ReplyCollector {
	c := &ReplyCollector{Addr: addr}
	net.Register(addr, c.handle)
	return c
}

func (c *ReplyCollector) handle(net transport.Transport, msg transport.Message) {
	if len(msg.Payload) < 1 || msg.Payload[0] != tagReplyDeliver {
		c.dropped++
		return
	}
	c.inbox = append(c.inbox, DeliveredReply{
		From: msg.Src,
		Body: append([]byte(nil), msg.Payload[1:]...),
		Time: net.Now(),
	})
}

// Inbox returns replies received so far.
func (c *ReplyCollector) Inbox() []DeliveredReply {
	return append([]DeliveredReply(nil), c.inbox...)
}

// Dropped reports discarded deliveries.
func (c *ReplyCollector) Dropped() int { return c.dropped }
