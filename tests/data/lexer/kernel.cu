#include <cuda_runtime.h>
#define N (1 << 20)

// SAXPY: y = a * x + y
__global__ void saxpy(int n, float a, const float *__restrict__ x, float *y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;  /* global index */
    if (i < n) y[i] = a * x[i] + y[i];
}

/* Reduction with shared memory,
   left open over two lines */ __global__ void reduce(const float *in, float *out) {
    extern __shared__ float tile[];
    unsigned int tid = threadIdx.x;
    tile[tid] = in[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (unsigned int s = blockDim.x / 2; s > 0; s >>= 1) {
        if (tid < s) { tile[tid] += tile[tid + s]; }
        __syncthreads();
    }
    if (tid == 0) out[blockIdx.x] = tile[0];
}

int main(void) {
	float *x, *y;
	cudaMalloc(&x, N * sizeof(float));
	cudaMalloc(&y, N * sizeof(float));
	saxpy<<<(N + 255) / 256, 256>>>(N, 2.0f, x, y);
	printf("done: %s\n", "ok\\");
	char nul = '\0';
	std::vector<float>::iterator it;
	cudaFree(x); cudaFree(y);
	return nul == '\0' ? 0 : 1; // exit
}
