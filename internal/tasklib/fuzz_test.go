package tasklib

import (
	"bytes"
	"testing"

	"repro/internal/matrix"
)

// FuzzDecode feeds arbitrary bytes to DecodeValue, the decoder of every
// task input a peer ships through Site.RunTask. Decoding must never panic,
// and a value that decodes must survive Encode→DecodeValue with an
// identical encoding. Run the smoke in CI with:
//
//	go test -run=NONE -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/tasklib
func FuzzDecode(f *testing.F) {
	m := matrix.New(2, 2)
	m.Data[0], m.Data[3] = 1, -2.5
	for _, v := range []Value{
		MatrixValue(m),
		VectorValue([]float64{1, 2, 3}),
		ScalarValue(3.25),
		TextValue("hello"),
		{Kind: KindLU, Matrix: m, Pivot: []int{1, 0}},
		{},
	} {
		data, err := v.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x03, 0x04, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeValue(data)
		if err != nil {
			return
		}
		enc, err := v.Encode()
		if err != nil {
			t.Fatalf("decoded value does not encode: %v", err)
		}
		back, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("round-tripped value does not encode: %v", err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the value: %+v vs %+v", v, back)
		}
	})
}
