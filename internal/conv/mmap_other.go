//go:build !linux

package conv

import (
	"errors"
	"os"
)

// mmapFile is unavailable off Linux; the pipelined converter then
// streams the partition through pooled chunks instead.
func mmapFile(f *os.File) ([]byte, func(), error) {
	return nil, nil, errors.New("conv: mmap not supported on this platform")
}

// dropPages is never reached off Linux, where nothing is mapped.
func dropPages([]byte) {}
