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

// guardedRegions are the range tests' guarded regions, guardedLen bytes
// each, numbered by their callers: the operands of one product are live
// together, one slice per region at a time.
const guardedLen = 1 << 18

var guardedRegions [9]struct {
	once sync.Once
	mem  []byte
}

// guardedBytes returns n bytes that end exactly where the readable
// memory of the given region does.
func guardedBytes(t testing.TB, region, n int) []byte {
	r := &guardedRegions[region]
	r.once.Do(func() { r.mem = guardRegion(guardedLen / syscall.Getpagesize()) })
	if n > guardedLen {
		t.Fatalf("guarded slice of %d bytes exceeds the region's %d", n, guardedLen)
	}
	return r.mem[guardedLen-n:]
}

// guardedF64 returns n float64s that end exactly where the readable
// memory of the given region does.
func guardedF64(t testing.TB, region, n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(guardedBytes(t, region, 8*n)))), n)
}

// guardedI8At is guardedF64 for int8s.
func guardedI8At(t testing.TB, region, n int) []int8 {
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(guardedBytes(t, region, n)))), n)
}
