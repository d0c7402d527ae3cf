package iqb

import (
	"bytes"
	"testing"
)

// FuzzReadConfigJSON: any input either fails to parse or validate, or
// gives a config that survives WriteJSON → ReadConfigJSON with the same
// Hash. It never panics. The corpus (testdata/fuzz) holds the default
// config, its minimum-quality same-tail variant and inputs each error
// path refuses.
func FuzzReadConfigJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadConfigJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := c.Hash()
		if err != nil {
			t.Fatalf("hashing a config ReadConfigJSON accepted: %v", err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("writing a config ReadConfigJSON accepted: %v", err)
		}
		back, err := ReadConfigJSON(&buf)
		if err != nil {
			t.Fatalf("reading back\n%s\nfails: %v", buf.Bytes(), err)
		}
		got, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip changes the hash from %s to %s:\n%s", want, got, buf.Bytes())
		}
	})
}
