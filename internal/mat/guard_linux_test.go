package mat

import (
	"sync"
	"syscall"
	"testing"
	"unsafe"
)

// guardRegion maps pages readable, writable pages with an inaccessible
// page on each side: a load or store that strays off either end of a
// slice cut flush against that end faults instead of passing unnoticed.
func guardRegion(pages int) []byte {
	size := syscall.Getpagesize()
	m, err := syscall.Mmap(-1, 0, (pages+2)*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	for _, guard := range [][]byte{m[:size], m[(pages+1)*size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			panic(err)
		}
	}
	return m[size : (pages+1)*size]
}

var guardPage = sync.OnceValue(func() []int8 {
	m := guardRegion(1)
	return unsafe.Slice((*int8)(unsafe.Pointer(&m[0])), len(m))
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

// guardedF64Regions are the fp64 range tests' three guarded regions —
// source, residual and bias are live together — of guardedF64Len float64s
// each.
const guardedF64Len = 1 << 15

var guardedF64Regions [3]struct {
	once sync.Once
	mem  []float64
}

// guardedF64 returns n float64s that end exactly where the readable
// memory of the given region does. One slice per region is live at a time.
func guardedF64(t testing.TB, region, n int) []float64 {
	r := &guardedF64Regions[region]
	r.once.Do(func() {
		m := guardRegion(guardedF64Len * 8 / syscall.Getpagesize())
		r.mem = unsafe.Slice((*float64)(unsafe.Pointer(&m[0])), guardedF64Len)
	})
	if n > guardedF64Len {
		t.Fatalf("guarded slice of %d float64s exceeds the region's %d", n, guardedF64Len)
	}
	return r.mem[guardedF64Len-n:]
}
