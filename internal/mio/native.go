package mio

import (
	"encoding/binary"
	"unsafe"
)

// This file is the only one in the package that imports unsafe. The binary
// grid format is little-endian, so on a little-endian host the memory of a
// []float64 or []int32 payload already is its encoding: the encoder hands
// those bytes to the CRC and the writer as they lie instead of re-encoding
// them through a scratch buffer. The views alias the payload — read-only, and
// dead once the write they were made for returns.

// nativeLE reports whether the host stores integers (and so IEEE-754 floats)
// least significant byte first. It is decided once, at init; a big-endian host
// encodes through the portable loops of binary.go. Tests clear it to run those
// loops on a little-endian host.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes returns the memory of vals as bytes.
func float64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// int32Bytes returns the memory of vals as bytes.
func int32Bytes(vals []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}
