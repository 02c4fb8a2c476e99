//go:build !linux

package main

import "syscall"

// childProcAttr has no parent-death signal to offer off Linux; the
// benchmark's own cleanup is the only guard there.
func childProcAttr() *syscall.SysProcAttr { return nil }
