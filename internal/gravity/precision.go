package gravity

// Precision is retained for bench/, which builder PRs may not edit and which
// spells AccelAllGrouped(..., gravity.Float64, ...); no code reads it.
// Float64 is the only arithmetic the kernels have. Goes with the next
// [benchmark] PR.
type Precision uint8

// Float64 is the only Precision value (retained for bench/, see Precision).
const Float64 Precision = 0
