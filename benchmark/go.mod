module github.com/prismdb/prismdb/benchmark

go 1.24.0

require github.com/prismdb/prismdb v0.0.0

replace github.com/prismdb/prismdb => ../
