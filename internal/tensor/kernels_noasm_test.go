//go:build !amd64

package tensor

import "testing"

// goLoopsOnly has nothing to turn off: this GOARCH runs the Go loops alone.
func goLoopsOnly(testing.TB) bool { return false }
