//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package cpals

import "syscall"

// mapBytes maps n zeroed bytes of anonymous memory, outside the Go heap;
// unmapBytes returns them to the system at once.
func mapBytes(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

func unmapBytes(b []byte) error { return syscall.Munmap(b) }
