package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
)

// digest hashes everything a run returns — the full simulated Stats
// with its per-processor rows and, for the recovery runners, the
// runner's own result — except the host-side path counters. Two runs
// digest alike exactly when their simulated outcomes are identical.
func digest(v any) string {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	// 32 bits are plenty to tell a changed result from an unchanged one
	// and keep reference.json small.
	return fmt.Sprintf("%08x", uint32(h.Sum64()))
}

func hashValue(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		put(0)
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if slices.Contains(hostCounters, t.Field(i).Name) {
				continue
			}
			h.Write([]byte(t.Field(i).Name))
			hashValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		// A topology is identified by its name; anything else is
		// followed to the value it refers to.
		if !v.IsNil() && v.CanInterface() {
			if n, ok := v.Interface().(interface{ Name() string }); ok && v.Kind() == reflect.Interface {
				h.Write([]byte(n.Name()))
				return
			}
		}
		if v.IsNil() {
			put(0)
			return
		}
		hashValue(h, v.Elem())
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}
