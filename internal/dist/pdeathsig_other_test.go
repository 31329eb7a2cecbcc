//go:build !linux

package dist

import "os/exec"

// dieWithTest does nothing where the kernel has no parent-death
// signal: there, only the test's own kill stops cmd's process.
func dieWithTest(*exec.Cmd) {}
