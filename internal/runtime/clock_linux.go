package runtime

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// newClock makes a one-shot CLOCK_MONOTONIC timerfd. It is O_NONBLOCK, so
// os.NewFile registers it with the runtime poller: a Read parks the goroutine,
// and epoll_wait returns when the kernel timer expires, to the microsecond.
func newClock() (*os.File, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	return os.NewFile(fd, "timerfd"), nil
}

// setClock arms the clock to expire once, d from now, and clears the
// expirations not yet read.
func setClock(c *os.File, d time.Duration) error {
	// struct itimerspec: no interval, then the value (a zero value disarms).
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(max(int64(d), 1))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	return nil
}
