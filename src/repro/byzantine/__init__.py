"""Byzantine fault injection: the paper's failure taxonomy made executable."""
