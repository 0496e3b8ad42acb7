package token

import "testing"

func FuzzUnmarshalToken(f *testing.F) {
	c, _ := NewChallenge(2, "issuer", "origin")
	tok, _ := NewToken(c)
	tok.Signature = []byte("seed signature")
	f.Add(tok.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Valid decodes must round-trip exactly.
		back, err := Unmarshal(tok.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if back.ID() != tok.ID() {
			t.Fatal("token id changed across round trip")
		}
	})
}
