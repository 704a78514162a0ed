module mpimon

go 1.23
