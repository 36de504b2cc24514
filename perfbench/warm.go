package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// keepWarm starts a busy loop at the lowest priority in a child process
// and returns the function that stops it. On a virtual machine an idle
// vCPU halts, and the work that wakes it runs slower by an amount that
// follows the host's load: on a 2-vCPU Xeon VM, server-mix latency varied
// 2x between runs and steadied with one CPU kept busy. A nice-19 thread
// yields to every other runnable thread, so it takes next to no CPU time
// from the workload.
func keepWarm() (stop func() error, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "spin")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() error {
		stdin.Close()
		return cmd.Wait()
	}, nil
}

// spin is keepWarm's child: it spins on one thread at nice 19 until its
// standard input closes, which also happens when the parent dies.
func spin() error {
	runtime.LockOSThread()
	// On Linux the nice value belongs to a thread: this one, which spins.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		return err
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}
