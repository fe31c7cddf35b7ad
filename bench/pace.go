package main

import (
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// An open-loop generator waits for its next due time in nanosleep(2) on an
// OS thread of its own whose kernel timer slack is 1 ns: on the reference
// VM that wakes 20–40 µs late, where Go's time.Sleep rounds up by 1–4 ms.
// A generator that polled the clock instead kept one of the box's few cores
// busy for the whole window, so the daemon's share of the CPUs, and with it
// every latency, depended on how the host scheduled the spinner.

const prSetTimerslack = 29 // PR_SET_TIMERSLACK, linux/prctl.h

// paceThread pins the calling goroutine to its OS thread and makes that
// thread's sleeps precise. The caller undoes it with runtime.UnlockOSThread.
func paceThread() {
	runtime.LockOSThread()
	// Best effort: if refused, the default 50 µs slack applies.
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// nap blocks the calling thread for d.
func nap(d time.Duration) {
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

const schedIdle = 5 // SCHED_IDLE, linux/sched.h

// keepAwake keeps all cores but one from idling for as long as the harness
// measures: it starts nproc−1 child shells that spin at SCHED_IDLE priority,
// which any other runnable thread preempts at once, and returns the function
// that kills and reaps them. On a KVM guest a halted vCPU takes the host's
// halt-polling state of the moment to wake, so with idle cores steady's p50
// and CPU per update fell into two modes a factor 1.5 apart from run to run;
// with every core spinning, seal fsyncs take seconds and the daemon drops
// updates. If the priority cannot be set the spinners are not used.
func keepAwake() (stop func(), err error) {
	var cmds []*exec.Cmd
	kill := func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
		cmds = nil
	}
	forget := addCleanup(kill)
	for i := 1; i < runtime.NumCPU(); i++ {
		c := exec.Command("sh", "-c", "while :; do :; done")
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			kill()
			forget()
			return nil, err
		}
		cmds = append(cmds, c)
		var param struct{ priority int32 }
		if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(c.Process.Pid), schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
			kill() // a spinner at normal priority would compete with the daemon
			break
		}
	}
	return func() { kill(); forget() }, nil
}
