package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps on a timerfd. The Go scheduler's network poller watches
// it, so a goroutine waiting on it holds no processor (a nanosleep would
// hold one, and starve the System on a small machine), and epoll returns
// as soon as the kernel's high-resolution timer fires.
type pacer struct {
	fd uintptr
	f  *os.File
}

type itimerspec struct{ interval, value syscall.Timespec }

const clockMonotonic = 1

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes the file pollable. f.Fd() would
	// switch it back to blocking, so the descriptor is kept apart.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep arms the timer for d > 0 and waits for it to fire, falling back
// to Go's timer if the timerfd fails.
func (p *pacer) sleep(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}

func (p *pacer) close() error { return p.f.Close() }
