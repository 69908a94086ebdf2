package gravity

// ForceGoKernels sends KernelBatchLibm and CellBatchLibm to their Go loops
// until the returned function is called. It writes a package variable, so a
// test that uses it must not run in parallel with others.
func ForceGoKernels() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}
