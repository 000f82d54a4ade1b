module queryflocks/bench

go 1.22

require queryflocks v0.0.0

replace queryflocks => ../
