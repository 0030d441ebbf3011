package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"maya/internal/trace"
)

// TestEngineLayout pins what keeps a replay off trace.Op and out of
// the collector's way. A queue entry is 16 pointer-free bytes and a
// busy interval is pointer-free, so the flat buffers every stream's
// window lies in are memory the collector never scans; and no engine
// state struct holds a *trace.Op, so dispatch cannot read one: it
// addresses ops by position and reads durations from the overlay.
func TestEngineLayout(t *testing.T) {
	if n := unsafe.Sizeof(pendingOp{}); n != 16 {
		t.Errorf("pendingOp is %d bytes, want 16", n)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[pendingOp](), reflect.TypeFor[interval]()} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer; queue and interval buffers must be pointer-free", typ)
		}
	}
	op := reflect.TypeFor[*trace.Op]()
	for _, typ := range []reflect.Type{
		reflect.TypeFor[pendingOp](), reflect.TypeFor[streamState](),
		reflect.TypeFor[collGroup](), reflect.TypeFor[simEvent](),
	} {
		for i := range typ.NumField() {
			if f := typ.Field(i); f.Type == op {
				t.Errorf("%v.%s is a *trace.Op: engine state addresses ops by position", typ, f.Name)
			}
		}
	}
}

// hasPointers reports whether a value of typ holds a pointer the
// collector would scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
