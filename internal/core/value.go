package core

import (
	"reflect"
	"unsafe"

	"skipvector/internal/vectormap"
)

// Values live in the data chunks' payload cells (vectormap.Cell). A V that
// holds no pointers and fits in 8 bytes is stored inline: the cell's word
// is the value's bits, the map's data chunks are word-celled, and their
// blocks are allocated noscan. Any other V is boxed: the cell points at a
// heap copy made when the value was stored and never written afterwards, so
// a reader that validated the cell may copy from the box at leisure. NewMap
// decides once per map (inlineable); cellOf and load below are the only
// places that know which way it went.
//
// Ownership follows from the copy: a *V argument is read once, during the
// call, and never kept (a nil one stands for the zero value); a *V result or
// callback argument points at a copy the caller owns (a callback's copy is
// reused for the next callback).

// inlineable reports whether values of type V are stored inline.
func inlineable[V any]() bool {
	t := reflect.TypeFor[V]()
	return t.Size() <= 8 && !hasPointers(t)
}

// hasPointers reports whether a value of type t holds anything the collector
// must see.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Slice, reflect.String, reflect.Interface:
		return true
	}
	return false
}

// cellOf returns the cell that stores *v: its bits, or a fresh box holding
// a copy. A nil v stores the zero value.
func (m *Map[V]) cellOf(v *V) vectormap.Cell {
	var c vectormap.Cell
	switch {
	case m.inline && v != nil:
		*(*V)(unsafe.Pointer(&c.Word)) = *v
	case m.inline:
	case v != nil:
		box := new(V)
		*box = *v
		c.Ptr = unsafe.Pointer(box)
	default:
		c.Ptr = unsafe.Pointer(new(V))
	}
	return c
}

// load copies the value c stores into *out. c must come from a validated
// read of a live user entry (never a sentinel's cell).
func (m *Map[V]) load(c vectormap.Cell, out *V) {
	if m.inline {
		*out = *(*V)(unsafe.Pointer(&c.Word))
	} else {
		*out = *(*V)(c.Ptr)
	}
}
