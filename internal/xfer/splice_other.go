//go:build !linux

package xfer

import "io"

// copySplice is Linux-only: elsewhere every copy takes the buffered loop.
func copySplice(io.Writer, io.Reader, *Pool, *CopyConfig) (int64, bool, error) {
	return 0, false, nil
}
