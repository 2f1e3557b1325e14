package mat

import (
	"sync"
	"syscall"
	"testing"
	"unsafe"
)

// guardPage is one readable, writable page with an inaccessible page on
// each side: a load or store that strays off either end of a slice cut
// flush against that end faults instead of passing unnoticed.
var guardPage = sync.OnceValue(func() []int8 {
	size := syscall.Getpagesize()
	m, err := syscall.Mmap(-1, 0, 3*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	for _, guard := range [][]byte{m[:size], m[2*size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			panic(err)
		}
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&m[size])), size)
})

// guardedI8 returns n int8s that end exactly where readable memory does
// (atEnd) or start exactly where it does. Every call hands out the same
// page: one slice is live at a time.
func guardedI8(t testing.TB, n int, atEnd bool) []int8 {
	page := guardPage()
	if n > len(page) {
		t.Fatalf("guarded slice of %d bytes exceeds the %d-byte page", n, len(page))
	}
	if atEnd {
		return page[len(page)-n:]
	}
	return page[:n:n]
}
