package trace

import (
	"compress/gzip"
	"os"
	"strings"
)

// FileWriter is a Writer bound to a file on disk, with transparent
// gzip compression when the path ends in ".gz" (Section VI-A: traces
// are compressed with standard tools and opened transparently).
type FileWriter struct {
	*Writer
	file *os.File
	gz   *gzip.Writer
}

// Create creates a trace file at path. If path ends in ".gz" the
// stream is gzip-compressed.
func Create(path string) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fw := &FileWriter{file: f}
	if strings.HasSuffix(path, ".gz") {
		fw.gz = gzip.NewWriter(f)
		fw.Writer = NewWriter(fw.gz)
	} else {
		fw.Writer = NewWriter(f)
	}
	return fw, nil
}

// Close flushes buffered data and closes the file.
func (fw *FileWriter) Close() error {
	err := fw.Flush()
	if fw.gz != nil {
		if e := fw.gz.Close(); err == nil {
			err = e
		}
	}
	if e := fw.file.Close(); err == nil {
		err = e
	}
	return err
}

// gzipMagic is the two-byte gzip stream signature.
var gzipMagic = [2]byte{0x1f, 0x8b}

// SniffGzip reports whether head begins with the gzip stream
// signature. This is the single gzip detection used everywhere — the
// ingest format registry (transparent decompression, and the refusal
// to tail a compressed trace) and atmdump — so a renamed or
// extension-less compressed trace is recognized identically on every
// path. A head shorter than the two magic bytes is never gzip.
func SniffGzip(head []byte) bool {
	return len(head) >= 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1]
}

// SniffNative reports whether head begins with the native binary trace
// magic. Like SniffGzip it is the single native-format detection the
// ingest registry builds on.
func SniffNative(head []byte) bool {
	return len(head) >= len(magic) &&
		head[0] == magic[0] && head[1] == magic[1] &&
		head[2] == magic[2] && head[3] == magic[3]
}
