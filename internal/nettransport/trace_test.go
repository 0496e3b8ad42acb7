package nettransport

import (
	"sync"
	"testing"

	"decoupling/internal/transport"
)

// TestSendTracedDelivers holds the wire-level propagation contract:
// a context attached via SendTraced crosses the socket in the frame
// codec's v2 extension and arrives in the delivered Message, while
// plain Send keeps delivering zero contexts on the same connections.
func TestSendTracedDelivers(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		net := New(Options{Seed: 1})
		defer net.Close()

		var mu sync.Mutex
		var got []transport.Message
		net.Register("sink", func(_ transport.Transport, msg transport.Message) {
			mu.Lock()
			got = append(got, msg)
			mu.Unlock()
		})
		net.Register("src", func(transport.Transport, transport.Message) {})

		want := testContext(0x41)
		if err := net.SendTraced("src", "sink", []byte("traced"), want); err != nil {
			t.Fatalf("SendTraced: %v", err)
		}
		if err := net.Send("src", "sink", []byte("plain")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		net.Run()

		mu.Lock()
		defer mu.Unlock()
		if len(got) != 2 {
			t.Fatalf("delivered %d messages, want 2", len(got))
		}
		for _, msg := range got {
			switch string(msg.Payload) {
			case "traced":
				if msg.Trace != want {
					t.Errorf("traced message carried %+v, want %+v", msg.Trace, want)
				}
			case "plain":
				if !msg.Trace.IsZero() {
					t.Errorf("plain message carried a trace context: %+v", msg.Trace)
				}
			default:
				t.Errorf("unexpected payload %q", msg.Payload)
			}
		}
	})
}
