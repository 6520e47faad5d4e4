package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
)

// fingerprint is FNV-64a over every field of a result struct, walked by
// reflection so a field added to sim.SynthResult or sim.AppResult joins
// the fingerprint without an edit here. Two runs with the same
// fingerprint reported identical simulated statistics.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

func hashValue(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b[0] = 1
		}
		h.Write(b[:1])
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
		h.Write(b[:])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.LittleEndian.PutUint64(b[:], v.Uint())
		h.Write(b[:])
	case reflect.Float32, reflect.Float64:
		// Every NaN hashes alike: "no samples" is one statistic, whatever
		// bit pattern produced it.
		f := v.Float()
		bits := math.Float64bits(f)
		if f != f {
			bits = math.Float64bits(math.NaN())
		}
		binary.LittleEndian.PutUint64(b[:], bits)
		h.Write(b[:])
	case reflect.String:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Len()))
		h.Write(b[:])
		h.Write([]byte(v.String()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Len()))
		h.Write(b[:])
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	default:
		panic(fmt.Sprintf("bench: fingerprint cannot hash a %v field", v.Kind()))
	}
}

// combine folds a sequence of fingerprints into one.
func combine(fps []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, fp := range fps {
		binary.LittleEndian.PutUint64(b[:], fp)
		h.Write(b[:])
	}
	return h.Sum64()
}
