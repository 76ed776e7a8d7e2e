package store

// The record value codec, for the external tests.
var (
	EncodeValue = encodeValue
	DecodeValue = decodeValue
)
