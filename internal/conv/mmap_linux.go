//go:build linux

package conv

import (
	"os"
	"syscall"
)

// mmapFile maps f read-only and returns the mapping plus its unmap
// function. The pipelined converter parses straight out of the page
// cache through it: no read syscalls, no kernel→user copy, no chunk
// buffers. Callers fall back to streamed reads when mapping fails
// (empty file, pipe, filesystem without mmap).
func mmapFile(f *os.File) ([]byte, func(), error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, syscall.EINVAL
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	// The converter walks the partition front to back; tell the kernel
	// so readahead stays aggressive.
	_ = syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
	return data, func() { _ = syscall.Munmap(data) }, nil
}

// dropPages gives page-aligned mapped memory back to the kernel. The
// file pages stay in the page cache, and a later touch faults them back
// in, so dropping is always safe.
func dropPages(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
