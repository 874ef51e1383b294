package isa

import "testing"

// FuzzDecode feeds Decode arbitrary bytes. It must not panic, and an
// instruction it accepts must survive Encode→Decode and String→ParseInsn
// unchanged.
func FuzzDecode(f *testing.F) {
	for _, in := range samples() {
		f.Add(Encode(nil, in))
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		in, err := Decode(code, 0)
		if err != nil {
			return
		}
		if got, err := Decode(Encode(nil, in), 0); err != nil || got != in {
			t.Fatalf("% x: Decode(Encode(%v)) = %+v, %v", code, in, got, err)
		}
		if got, err := ParseInsn(in.String()); err != nil || got != in {
			t.Fatalf("% x: ParseInsn(%q) = %+v, %v", code, in.String(), got, err)
		}
	})
}
