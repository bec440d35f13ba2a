//go:build amd64

package tensor

import "testing"

// forEachDispatch runs f once per SIMD dispatch this CPU supports —
// AVX-512, AVX2 and portable — forcing it through the kernels' gates
// and restoring them afterwards.
func forEachDispatch(t *testing.T, f func(t *testing.T)) {
	save2, save512 := useAVX2FMA, useAVX512
	defer func() { useAVX2FMA, useAVX512 = save2, save512 }()
	for _, m := range []struct {
		name         string
		avx2, avx512 bool
		supported    bool
	}{
		{"avx512", true, true, save512},
		{"avx2", true, false, save2},
		{"portable", false, false, true},
	} {
		t.Run(m.name, func(t *testing.T) {
			if !m.supported {
				t.Skip("not supported on this CPU")
			}
			useAVX2FMA, useAVX512 = m.avx2, m.avx512
			f(t)
		})
	}
}
