package main

import (
	"math"
	"strconv"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
)

// digest is an order-insensitive fingerprint of a result: the row
// count plus the sum of mixed per-row hashes. Storage modes may return
// unordered results in different orders, so the sum (not a running
// hash) is what two modes are compared on.
type digest struct {
	Rows int
	Sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// mix is a 64-bit finalizer (splitmix64), so summed row hashes do not
// cancel structurally.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashNumber hashes a number by its value rounded to 12 significant
// digits, so the same value spelled or summed differently by two
// storage modes (1.5 vs 1.50, float summation order) hashes alike.
func hashNumber(h uint64, f float64) uint64 {
	if f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return fnvUint(h, math.Float64bits(f+0)) // folds -0 into 0
	}
	exp := math.Floor(math.Log10(math.Abs(f)))
	scale := math.Pow(10, 11-exp)
	return fnvUint(h, math.Float64bits(math.Round(f*scale)/scale))
}

func hashValue(h uint64, v jsondom.Value) uint64 {
	switch x := v.(type) {
	case nil, jsondom.Null:
		return fnvString(h, "\x00n")
	case jsondom.Bool:
		if x {
			return fnvString(h, "\x00t")
		}
		return fnvString(h, "\x00f")
	case jsondom.Number:
		if f, err := strconv.ParseFloat(string(x), 64); err == nil {
			return hashNumber(fnvString(h, "\x00#"), f)
		}
		return fnvString(fnvString(h, "\x00#"), string(x))
	case jsondom.Double:
		return hashNumber(fnvString(h, "\x00#"), float64(x))
	case jsondom.String:
		return fnvString(fnvString(h, "\x00s"), string(x))
	case jsondom.Binary:
		return fnvString(fnvString(h, "\x00b"), string(x))
	default:
		return fnvString(fnvString(h, "\x00j"), jsontext.SerializeString(v))
	}
}

func digestRows(rows [][]jsondom.Value) digest {
	d := digest{Rows: len(rows)}
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, v := range row {
			h = hashValue(h, v)
		}
		d.Sum += mix(h)
	}
	return d
}

// hashText fingerprints a document's JSON text (doc-crud's Get check).
func hashText(s string) uint64 { return fnvString(fnvOffset, s) }
