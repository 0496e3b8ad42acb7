package nettransport

import (
	"encoding/binary"
	"errors"

	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Wire framing. Every datagram the real transport moves crosses its TCP
// stream as a length-prefixed frame:
//
//	v1: [magic 1][version=1][srcLen 1][dstLen 1][payloadLen 4 BE]
//	    [src srcLen][dst dstLen][payload payloadLen]
//
//	v2: [magic 1][version=2][srcLen 1][dstLen 1][payloadLen 4 BE]
//	    [extLen 1][ext extLen]
//	    [src srcLen][dst dstLen][payload payloadLen]
//
// Version 2 adds a variable-length trace extension between the common
// header and the addresses: today it carries the 24-byte wiretrace
// context (trace ID + parent span ID); extLen may grow up to
// MaxTraceExt so decoders tolerate future additions by ignoring bytes
// they don't understand. The extension rides out-of-band of the
// payload — payload bytes (and therefore the ledger's wire-byte
// handles) are identical whether or not a frame is traced. Encoders
// emit v1 whenever no context is attached, so untraced traffic is
// byte-identical to the old wire format and old decoders interoperate.
//
// Batching is concatenation: a sender packs as many frames as fit its
// batch budget into one write, and DecodeFrame consumes one frame and
// returns the rest. The format is deliberately self-describing and
// bounded so a truncated or hostile byte stream is rejected, never
// sliced out of range — FuzzWireFrame holds that property across both
// versions and arbitrary extension bytes.
const (
	frameMagic     byte = 0xDC
	frameVersion   byte = 1
	frameVersionV2 byte = 2
	frameHeader         = 8
	// frameHeaderV2 includes the extension-length byte; the extension
	// itself follows.
	frameHeaderV2 = frameHeader + 1

	// MaxAddrLen bounds either address (the length fields are one byte).
	MaxAddrLen = 255
	// MaxFramePayload bounds a single frame's payload; anything larger
	// is a corrupt length prefix, not a legitimate datagram.
	MaxFramePayload = 4 << 20
	// MaxTraceExt bounds a v2 trace extension. Larger means a corrupt
	// length byte, not a legitimate extension.
	MaxTraceExt = 64
)

// Framing errors. Decoders distinguish truncation (wait for more bytes
// on a stream) from structural corruption (drop the connection).
var (
	ErrFrameMagic     = errors.New("nettransport: bad frame magic")
	ErrFrameVersion   = errors.New("nettransport: unsupported frame version")
	ErrFrameTruncated = errors.New("nettransport: truncated frame")
	ErrFrameOversize  = errors.New("nettransport: frame exceeds size bounds")
	// ErrTraceExtOversize rejects a v2 extension length beyond
	// MaxTraceExt; ErrTraceExtTruncated rejects one too short to hold a
	// trace context.
	ErrTraceExtOversize  = errors.New("nettransport: trace extension exceeds size bounds")
	ErrTraceExtTruncated = errors.New("nettransport: trace extension truncated")
)

// AppendFrame appends the encoded frame for msg to dst and returns the
// extended slice. A message carrying a trace context encodes as v2;
// otherwise the frame is bit-identical to the v1 format.
func AppendFrame(dst []byte, msg transport.Message) ([]byte, error) {
	if len(msg.Src) > MaxAddrLen || len(msg.Dst) > MaxAddrLen {
		return dst, ErrFrameOversize
	}
	if len(msg.Payload) > MaxFramePayload {
		return dst, ErrFrameOversize
	}
	version := frameVersion
	if !msg.Trace.IsZero() {
		version = frameVersionV2
	}
	dst = append(dst, frameMagic, version, byte(len(msg.Src)), byte(len(msg.Dst)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg.Payload)))
	if version == frameVersionV2 {
		dst = append(dst, byte(wiretrace.EncodedLen))
		dst = msg.Trace.Encode(dst)
	}
	dst = append(dst, msg.Src...)
	dst = append(dst, msg.Dst...)
	return append(dst, msg.Payload...), nil
}

// headerLen returns the number of bytes a stream reader must have
// before FrameLen can size the full frame: the common header, plus the
// extension-length byte for v2. Returns frameHeader when b is too
// short to tell (read that much and ask again).
func headerLen(b []byte) int {
	if len(b) >= 2 && b[0] == frameMagic && b[1] == frameVersionV2 {
		return frameHeaderV2
	}
	return frameHeader
}

// FrameLen returns the total encoded length of a frame whose header is
// at the start of b, or 0 if too few bytes are present to size it
// (headerLen bytes: 8 for v1, 9 for v2). It validates nothing beyond
// having a complete header; callers use it to size stream reads before
// DecodeFrame validates.
func FrameLen(b []byte) int {
	need := headerLen(b)
	if len(b) < need {
		return 0
	}
	n := need + int(b[2]) + int(b[3]) + int(binary.BigEndian.Uint32(b[4:8]))
	if need == frameHeaderV2 {
		n += int(b[8]) // the extension body follows the length byte
	}
	return n
}

// DecodeFrame consumes one frame from the front of b, returning the
// decoded message and the remaining bytes. The returned payload slices
// b (decoders copy if they keep it). Truncated input returns
// ErrFrameTruncated; corrupt magic, version, or an oversize length
// prefix return their structural errors; a v2 trace extension that is
// oversize or too short for a context returns its typed error. A v2
// frame's context lands in msg.Trace; extension bytes beyond the
// context are ignored (forward compatibility).
func DecodeFrame(b []byte) (transport.Message, []byte, error) {
	var msg transport.Message
	if len(b) < frameHeader {
		return msg, b, ErrFrameTruncated
	}
	if b[0] != frameMagic {
		return msg, b, ErrFrameMagic
	}
	if b[1] != frameVersion && b[1] != frameVersionV2 {
		return msg, b, ErrFrameVersion
	}
	srcLen, dstLen := int(b[2]), int(b[3])
	payloadLen := int(binary.BigEndian.Uint32(b[4:8]))
	if payloadLen > MaxFramePayload {
		return msg, b, ErrFrameOversize
	}
	body := b[frameHeader:]
	total := frameHeader + srcLen + dstLen + payloadLen
	if b[1] == frameVersionV2 {
		if len(b) < frameHeaderV2 {
			return msg, b, ErrFrameTruncated
		}
		extLen := int(b[8])
		if extLen > MaxTraceExt {
			return msg, b, ErrTraceExtOversize
		}
		if extLen < wiretrace.EncodedLen {
			return msg, b, ErrTraceExtTruncated
		}
		total += 1 + extLen
		if len(b) < total {
			return msg, b, ErrFrameTruncated
		}
		ext := b[frameHeaderV2 : frameHeaderV2+extLen]
		ctx, err := wiretrace.DecodeContext(ext)
		if err != nil {
			return msg, b, ErrTraceExtTruncated
		}
		msg.Trace = ctx
		body = b[frameHeaderV2+extLen:]
	}
	if len(b) < total {
		return msg, b, ErrFrameTruncated
	}
	msg.Src = transport.Addr(body[:srcLen])
	msg.Dst = transport.Addr(body[srcLen : srcLen+dstLen])
	msg.Payload = body[srcLen+dstLen : srcLen+dstLen+payloadLen]
	return msg, b[total:], nil
}
