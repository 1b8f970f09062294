package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// nap sleeps for d on a timerfd read through the runtime's poller.
// Where the kernel's timer tick is coarse, the runtime's own timers wake
// up to a millisecond late (host.sleep_floor_us records it) because an
// idle process waits for them in epoll_wait, whose timeout is in
// milliseconds; a timerfd wakes that wait at its own, fine resolution.
// The open-loop schedule and the simulated round trips both need that.
// Like time.Sleep, and unlike a blocking nanosleep, it holds no P.
func nap(d time.Duration) {
	if d <= 0 {
		return
	}
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	f := os.NewFile(fd, "timerfd")
	defer f.Close()
	// struct itimerspec {it_interval, it_value}: a one-shot timer.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}
