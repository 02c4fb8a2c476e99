package main

import "syscall"

// childProcAttr makes the kernel kill the sbserver child if the
// benchmark dies without running its cleanup (SIGKILL, a crash).
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
