package scheduler

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to DecodeTable, the allocation-table
// wire decoder. Decoding must never panic, and a table that decodes must
// survive Encode→DecodeTable with an identical encoding (entries, order
// and all). Run the smoke in CI with:
//
//	go test -run=NONE -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/scheduler
func FuzzDecode(f *testing.F) {
	seed, err := orderedTestTable().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"app":"x","entries":{"a":{"task":"a","site":"s","host":"h","predicted":1}},"order":["z","a","a"]}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := DecodeTable(data)
		if err != nil {
			return
		}
		enc, err := table.Encode()
		if err != nil {
			t.Fatalf("decoded table does not encode: %v", err)
		}
		back, err := DecodeTable(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("round-tripped table does not encode: %v", err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the table:\n%s\nvs\n%s", enc, again)
		}
	})
}
