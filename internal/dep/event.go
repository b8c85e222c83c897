package dep

// MatrixID identifies a logical matrix value inside a program. Every
// operator output (and every loaded input) gets a fresh ID; reading the
// transpose of a matrix is expressed by a transposed flag on the read rather
// than by a new ID, which is exactly what lets the analyzer detect transpose
// dependencies.
type MatrixID int
