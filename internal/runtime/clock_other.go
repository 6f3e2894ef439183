//go:build !linux

package runtime

import (
	"errors"
	"os"
	"time"
)

// newClock fails: without a timerfd, round traffic waits on the timer.
func newClock() (*os.File, error) { return nil, errors.ErrUnsupported }

func setClock(*os.File, time.Duration) error { return errors.ErrUnsupported }
