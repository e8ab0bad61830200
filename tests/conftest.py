# holoseq sets its BLAS thread policy on import, before numpy loads; import it
# first so the tests run with the threads the package runs with.
import holoseq  # noqa: F401
