package tensor

// ZipfEntries exposes GenZipf's draw phase to the external benchmarks, so
// they can time the draws and DedupSum apart.
var ZipfEntries = zipfEntries
