package dist

import (
	"os/exec"
	"syscall"
)

// dieWithTest has cmd's process killed when the test binary that
// starts it dies, however it dies: a -timeout panic or a signal runs
// no deferred kill and no t.Cleanup.
func dieWithTest(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
