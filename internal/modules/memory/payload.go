package memory

import (
	"reflect"
	"sync"
)

// SamePayload reports whether two record payloads carry the same content,
// with reflect.DeepEqual's meaning. Payloads whose type is plain data —
// booleans, numbers, strings, and arrays or structs built only from
// those — are compared with ==, which agrees with DeepEqual on them and
// costs no reflection. Everything else (maps, slices, pointers,
// interfaces, and structs holding them) falls back to DeepEqual: a bare ==
// would panic on a map or slice payload and compare pointers by identity.
func SamePayload(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case string:
		y, ok := b.(string)
		return ok && x == y
	case int:
		y, ok := b.(int)
		return ok && x == y
	}
	t := reflect.TypeOf(a)
	if t != reflect.TypeOf(b) {
		return false
	}
	if plainData(t) {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// plainTypes caches plainData's verdict per payload type; records are
// compared from concurrently running episodes.
var plainTypes sync.Map // reflect.Type -> bool

// plainData reports whether == on values of t agrees with
// reflect.DeepEqual: t holds no pointer, map, slice, interface, func or
// channel, directly or in a field or element.
func plainData(t reflect.Type) bool {
	if v, ok := plainTypes.Load(t); ok {
		return v.(bool)
	}
	ok := plainKind(t)
	plainTypes.Store(t, ok)
	return ok
}

func plainKind(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return true
	case reflect.Array:
		return plainKind(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !plainKind(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
