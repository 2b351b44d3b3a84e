//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package cpals

import "unsafe"

// mapBytes allocates n zeroed bytes, 8-byte aligned, on the Go heap where
// syscall.Mmap is missing; the collector frees them once unreferenced.
func mapBytes(n int) ([]byte, error) {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n), nil
}

func unmapBytes([]byte) error { return nil }
