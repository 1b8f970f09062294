//go:build !linux

package main

import "time"

// nap sleeps for d; only Linux has the finer timer (nap_linux.go).
func nap(d time.Duration) { time.Sleep(d) }
