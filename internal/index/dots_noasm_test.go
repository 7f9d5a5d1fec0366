//go:build !amd64

package index

import "testing"

// dotLoopOnly has nothing to turn off: this GOARCH runs dot's loop alone.
func dotLoopOnly(testing.TB) bool { return false }
