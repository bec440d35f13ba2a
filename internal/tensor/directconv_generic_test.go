//go:build !amd64

package tensor

import "testing"

// forEachDispatch runs f once: off amd64 the portable loops are the
// only dispatch.
func forEachDispatch(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}
